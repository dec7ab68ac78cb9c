//! `dblp-paper`: the paper's own setting. A DBLP-like graph in random
//! order, serialised as text and parsed by `TextEdgeSource` (as
//! `loom stream` reads stdin), partitioned by Loom at the §5.1
//! defaults with adaptive capacity and the DBLP 4-query workload.
//! No WAL, no serving. Weighted ipt is counted after the timed ingest.

use crate::common::{
    alphabet, ingest, loom_engine, source, Budget, Opts, Report, Reps, RssProbe, Timings,
    SETUP_SAMPLES,
};
use crate::layers::Layers;
use crate::trace::Shared;
use loom_core::graph::generators::dblp::{generate, DblpConfig};
use loom_core::graph::{GraphStream, LabeledGraph, StreamOrder, TextEdgeSource, Workload};
use loom_core::partition::LoomConfig;
use loom_core::query::{count_ipt, workloads::dblp_workload};
use std::io::Write;
use std::time::Instant;

/// Target edge count of the generated graph (~1.13M edges result).
const TARGET_EDGES: usize = 1_000_000;
/// Partitions (§5.1).
const K: usize = 8;
/// Match enumeration cap per query when counting ipt (the evaluation
/// default).
const IPT_LIMIT: usize = 200_000;

struct Input {
    graph: LabeledGraph,
    text: Vec<u8>,
    edges: u64,
    /// Vertices that occur in at least one edge.
    vertices: usize,
    workload: Workload,
    labels: usize,
}

fn make_input(seed: u64) -> Input {
    let graph = generate(&DblpConfig::with_target_edges(TARGET_EDGES), seed);
    let stream = GraphStream::from_graph(&graph, StreamOrder::Random, seed);
    let mut text = Vec::with_capacity(stream.len() * 18);
    writeln!(text, "labels {}", graph.label_names().join(" ")).expect("write to memory");
    for v in graph.vertices() {
        writeln!(text, "v {}", graph.label(v).0).expect("write to memory");
    }
    let mut seen = vec![false; graph.num_vertices()];
    for e in stream.iter() {
        writeln!(text, "e {} {}", e.src.0, e.dst.0).expect("write to memory");
        seen[e.src.index()] = true;
        seen[e.dst.index()] = true;
    }
    let workload = dblp_workload();
    Input {
        labels: alphabet(graph.num_labels(), &workload),
        edges: stream.len() as u64,
        vertices: seen.iter().filter(|&&s| s).count(),
        graph,
        text,
        workload,
    }
}

/// One pass: repeat set-up + ingest until `budget` has passed.
/// Returns the state digest every repetition agreed on.
fn pass(
    input: &Input,
    budget: Budget,
    trace: Option<&Shared>,
    r: &mut Report,
    layers: &mut Layers,
) -> Vec<u8> {
    let cfg = LoomConfig::evaluation_defaults(K);
    let setup = || loom_engine(&cfg, &input.workload, input.labels, trace);
    let mut timings = Timings::default();
    for _ in 0..SETUP_SAMPLES {
        drop(timings.setup(setup));
    }
    let mut digest: Option<Vec<u8>> = None;
    let mut assignment = None;
    let mut reps = Reps::new(budget);
    while reps.more(&timings) {
        // One repetition's peak, input excluded: later ones only add
        // allocator noise.
        let rss = (trace.is_none() && r.get("peak_rss_mb").is_none()).then(RssProbe::start);
        let (mut engine, motif_s, motifs) = timings.setup(setup);
        let mut text = source(TextEdgeSource::new(&input.text[..]), trace);
        let ing = ingest(&mut engine, text.as_mut(), u64::MAX, |_, _| {});
        let mut log = trace.map(Shared::take);
        let source_error = text.error().map(String::from);
        let fin = engine.finish();
        r.attempted += ing.batch_us.len() as u64;
        r.check(source_error.is_none(), || {
            format!("text feed failed: {source_error:?}")
        });
        r.check(ing.edges == input.edges, || {
            format!("ingested {} of {} edges", ing.edges, input.edges)
        });
        r.check(fin.vertices == input.vertices, || {
            format!("{} of {} vertices assigned", fin.vertices, input.vertices)
        });
        let d = engine.state_digest().expect("Loom checkpoints its state");
        match &digest {
            None => {
                r.set("imbalance", fin.imbalance, "ratio");
                r.set("cut_fraction", fin.cut_fraction(), "ratio");
                assignment = Some(engine.state().to_assignment());
                digest = Some(d);
            }
            Some(first) => r.check(*first == d, || {
                "repetitions disagree on the final state".into()
            }),
        }
        if let Some(rss) = rss {
            r.set("peak_rss_mb", rss.peak_mb(), "MB");
        }
        timings.add(&ing);
        if let Some(log) = &mut log {
            layers.add_ingest(log, &ing, 0, &fin);
            layers.add("motif.build_ms", motif_s * 1e3, "ms");
            layers.add("motif.count", motifs as f64, "count");
        }
    }
    // Every repetition ended in the same state, so one ipt count
    // covers them all; it runs outside the measured repetitions.
    if trace.is_none() {
        let a = assignment.expect("at least one repetition");
        let t = Instant::now();
        let ipt = count_ipt(&input.graph, &a, &input.workload, IPT_LIMIT);
        r.set("weighted_ipt", ipt.weighted_ipt, "traversals");
        println!(
            "# weighted ipt counted in {:.1} s",
            t.elapsed().as_secs_f64()
        );
    }
    timings.report(trace.is_some(), r);
    digest.expect("at least one repetition")
}

pub fn run(opts: &Opts) -> (Report, Option<Report>) {
    let t = Instant::now();
    let input = make_input(opts.seed);
    println!(
        "# dblp-paper: {} edges, {} vertices, {} labels, {} text bytes, made in {:.1} s",
        input.edges,
        input.vertices,
        input.labels,
        input.text.len(),
        t.elapsed().as_secs_f64()
    );
    let mut e2e = Report::default();
    let budget = Budget::of(opts);
    let digest = pass(&input, budget, None, &mut e2e, &mut Layers::default());
    if !opts.trace {
        return (e2e, None);
    }
    let mut traced = Report::default();
    let mut layers = Layers::default();
    let log = Shared::default();
    let traced_digest = pass(&input, budget, Some(&log), &mut traced, &mut layers);
    traced.check(traced_digest == digest, || {
        "traced run's final state differs from the untraced run's".into()
    });
    layers.report(&mut traced);
    crate::common::overhead(&e2e, &mut traced);
    (e2e, Some(traced))
}
