//! Per-layer probes. Each layer is timed from outside, by calling the
//! public function that implements it on the workload's own data; the
//! program under test gains no instrumentation for the benchmark.

use std::hint::black_box;
use std::sync::Arc;

use clusterbft_repro::cli;
use clusterbft_repro::dataflow::compile::compile_plan;
use clusterbft_repro::dataflow::{Record, Script};
use clusterbft_repro::digest::ChunkedDigest;
use clusterbft_repro::mapreduce::Cluster;

use crate::stats::median_ms;
use crate::Figures;

/// What one job of a workload processes, as the probes replay it.
pub struct JobShape<'a> {
    pub script: &'a str,
    pub input_name: &'a str,
    /// The job's input as the CSV text `cbft` reads.
    pub csv: &'a str,
    /// The same input as records (what ingest produces).
    pub input: &'a [Record],
    /// The reference output (what the job publishes).
    pub output: &'a [Record],
    /// Replicas one job runs, from its run report.
    pub replicas: usize,
    pub nodes: usize,
    pub slots: usize,
}

/// Times every library layer over `shape` and appends the results:
/// ingest, render, plan, cluster setup and digesting.
pub fn library_layers(shape: &JobShape<'_>, out: &mut Figures) {
    let ingest_ms = median_ms(|| {
        let rows: Vec<Record> = black_box(shape.csv)
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(cli::parse_record)
            .collect();
        black_box(rows);
    });
    out.push("cli.ingest_ms", ingest_ms, "ms");
    out.push("cli.ingest_rows", shape.input.len() as f64, "count");

    let render_ms = median_ms(|| {
        let mut text = String::new();
        for r in black_box(shape.output) {
            text.push_str(&cli::render_record(r));
            text.push('\n');
        }
        black_box(text);
    });
    out.push("cli.render_ms", render_ms, "ms");
    out.push("cli.render_rows", shape.output.len() as f64, "count");

    let mut mr_jobs = 0;
    let plan_ms = median_ms(|| {
        let plan = Script::parse(black_box(shape.script))
            .expect("workload script parses")
            .into_plan();
        mr_jobs = black_box(compile_plan(&plan)).len();
    });
    out.push("dataflow.plan_us", plan_ms * 1e3, "us");
    out.push("dataflow.mr_jobs", mr_jobs as f64, "count");

    let shared: Arc<[Record]> = shape.input.into();
    let setup_ms = median_ms(|| {
        for replica in 0..shape.replicas {
            let mut cluster = Cluster::builder()
                .nodes(shape.nodes)
                .slots_per_node(shape.slots)
                .seed(replica as u64)
                .build();
            cluster
                .storage_mut()
                .write_shared(shape.input_name, Arc::clone(&shared))
                .expect("fresh storage accepts the input");
            black_box(cluster);
        }
    });
    out.push("mapreduce.cluster_setup_us", setup_ms * 1e3, "us");

    // Digest the job's input and output streams the way a replica's
    // tasks do: length-framed canonical records, whole-stream
    // granularity (the `cbft` default).
    let mut bytes = 0;
    let hash_ms = median_ms(|| {
        bytes = 0;
        let mut buf = Vec::new();
        for stream in [shape.input, shape.output] {
            let mut digest = ChunkedDigest::whole_stream();
            for r in stream {
                ChunkedDigest::begin_frame(&mut buf);
                r.write_canonical(&mut buf);
                ChunkedDigest::seal_frame(&mut buf);
                digest.append_framed(&buf);
                bytes += buf.len();
            }
            black_box(digest.finish());
        }
    });
    out.push("digest.bytes", bytes as f64, "bytes");
    out.push("digest.hash_ms", hash_ms, "ms");
}

/// Appends the breakdown of the traced job wall time (`job_ms`): the
/// replica busy time read from the trace plus the ingest and render
/// probes, the unattributed remainder, and each part's share.
pub fn breakdown(job_ms: f64, replica_busy_ms: f64, out: &mut Figures) {
    let ingest = out.get("cli.ingest_ms");
    let render = out.get("cli.render_ms");
    let other = job_ms - (ingest + replica_busy_ms + render);
    out.push("core.replica_busy_ms", replica_busy_ms, "ms");
    out.push("core.other_ms", other, "ms");
    out.push("share.cli_ingest_pct", 100.0 * ingest / job_ms, "%");
    out.push(
        "share.core_replica_busy_pct",
        100.0 * replica_busy_ms / job_ms,
        "%",
    );
    out.push("share.cli_render_pct", 100.0 * render / job_ms, "%");
    out.push("share.core_other_pct", 100.0 * other / job_ms, "%");
}
