//! The serving workload: an in-process `JobServer` under a closed loop of
//! clients, each submitting its next small job when the last completes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use clusterbft_repro::cli;
use clusterbft_repro::core::{ExecutorConfig, VpPolicy};
use clusterbft_repro::dataflow::interp::interpret;
use clusterbft_repro::dataflow::{Record, Script};
use clusterbft_repro::metrics::{Metrics, SampleValue, Snapshot};
use clusterbft_repro::server::{JobResult, JobServer, JobSpec, ServerConfig, SubmitOutcome};
use clusterbft_repro::trace::{Phase, Tracer, JOB_PID_STRIDE};
use clusterbft_repro::workloads::twitter;

use crate::probes::{self, JobShape};
use crate::stats::{median, windowed, Spans, MAP, REDUCE, REPLICA};
use crate::{Args, Figures, Outcome, CBFT_SEED};

/// Edges per job.
const EDGES: usize = 300;
/// Distinct job inputs; submission `i` runs input `i % POOL`.
const POOL: usize = 64;
/// Concurrent clients, so jobs in flight.
const CLIENTS: usize = 4;
/// Jobs each set-up runs before timing starts.
const WARMUP: usize = 1000;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// Tenants and fair-share weights; submissions follow the same 4:2:1 mix.
const TENANTS: [(&str, u64); 3] = [("acme", 4), ("beta", 2), ("solo", 1)];
const NODES: usize = 8;

/// Executor settings of a served job: two replica threads, inline
/// payloads, f = 1, 3 slots per node.
pub fn exec_config(nodes: usize, escalation: Vec<usize>) -> ExecutorConfig {
    ExecutorConfig {
        threads: 2,
        compute_threads: 1,
        expected_failures: 1,
        escalation,
        vp_policy: VpPolicy::Marked(2),
        master_seed: CBFT_SEED,
        nodes,
        slots_per_node: 3,
        ..ExecutorConfig::default()
    }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        slots: 2,
        queue_depth: 64,
        compute_threads: 1,
        weights: TENANTS.iter().map(|&(t, w)| (t.to_owned(), w)).collect(),
        ..ServerConfig::default()
    }
}

fn tenant(i: usize) -> &'static str {
    match i % 7 {
        0..=3 => TENANTS[0].0,
        4 | 5 => TENANTS[1].0,
        _ => TENANTS[2].0,
    }
}

/// One job input and its sorted reference output.
struct Job {
    input: Vec<Record>,
    reference: Vec<Record>,
}

fn inputs(seed: u64) -> Vec<Vec<Record>> {
    (0..POOL as u64)
        .map(|k| twitter::generate(seed.wrapping_mul(1_000_003).wrapping_add(k), EDGES))
        .collect()
}

fn reference(script: &str, input_name: &str, output: &str, input: &[Record]) -> Vec<Record> {
    let plan = Script::parse(script)
        .expect("workload script parses")
        .into_plan();
    let inputs = HashMap::from([(input_name.to_owned(), input.to_vec())]);
    let mut rows = interpret(&plan, &inputs)
        .expect("reference interpreter runs the workload")
        .output(output)
        .expect("script stores its output")
        .to_vec();
    rows.sort_unstable();
    rows
}

/// Checks a served job: it ran, verified and published the reference.
fn check(result: &JobResult, output: &str, reference: &[Record]) -> Result<(), String> {
    let outcome = result
        .outcome
        .as_ref()
        .map_err(|e| format!("job {} failed: {e}", result.id))?;
    if !outcome.verified() {
        return Err(format!("job {} not verified", result.id));
    }
    let mut got = outcome.output(output).unwrap_or_default().to_vec();
    got.sort_unstable();
    if got != reference {
        return Err(format!(
            "job {} output differs from the reference",
            result.id
        ));
    }
    Ok(())
}

/// What the traced serving half collects per completed job.
#[derive(Default)]
struct TracedJobs {
    heartbeats: Vec<f64>,
    shuffle_bytes: Vec<f64>,
    /// Replicas per round and digest reports of the last job that ran.
    rounds: Vec<usize>,
    reports: usize,
}

/// One completed submission, timed from outside.
struct Sample {
    /// Submit to completion, ms.
    job_ms: f64,
    /// Completion, in seconds from the start of the closed loop.
    completed_s: f64,
    /// Time inside `JobServer::submit`, µs.
    submit_us: f64,
    queue_us: u64,
    exec_us: u64,
    total_us: u64,
}

/// Runs the closed loop until `window` has passed and at least `min_jobs`
/// jobs were submitted, and returns the samples. `done` sees every
/// completed job.
fn closed_loop(
    server: &JobServer,
    jobs: &[Job],
    window: Duration,
    min_jobs: usize,
    out: &Mutex<&mut Outcome>,
    done: &(dyn Fn(&JobResult) + Sync),
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= min_jobs && start.elapsed() >= window {
                            return mine;
                        }
                        let job = &jobs[i % jobs.len()];
                        let spec = JobSpec::new(tenant(i), twitter::FOLLOWER_SCRIPT)
                            .input(twitter::INPUT, job.input.clone())
                            .exec(exec_config(NODES, vec![2]));
                        let t0 = Instant::now();
                        let submitted = server.submit(spec);
                        let submit_us = t0.elapsed().as_secs_f64() * 1e6;
                        let result = match submitted {
                            SubmitOutcome::Admitted(h) => h.wait(),
                            SubmitOutcome::Rejected(r) => {
                                let mut o = out.lock().expect("outcome lock poisoned");
                                o.record(Err(format!("submission rejected: {r}")));
                                continue;
                            }
                        };
                        let job_ms = t0.elapsed().as_secs_f64() * 1e3;
                        let completed_s = start.elapsed().as_secs_f64();
                        let verdict = check(&result, "follower_counts", &job.reference);
                        out.lock().expect("outcome lock poisoned").record(verdict);
                        done(&result);
                        mine.push(Sample {
                            job_ms,
                            completed_s,
                            submit_us,
                            queue_us: result.queue_us,
                            exec_us: result.exec_us,
                            total_us: result.total_us,
                        });
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs the serving workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let script = twitter::FOLLOWER_SCRIPT;
    let jobs: Vec<Job> = inputs(args.seed)
        .into_iter()
        .map(|input| Job {
            reference: reference(script, twitter::INPUT, "follower_counts", &input),
            input,
        })
        .collect();
    println!(
        "workload server_small_jobs: {POOL} distinct {EDGES}-edge jobs, {CLIENTS} closed-loop \
         clients, 2 slots, compute_threads 1, tenants acme:beta:solo = 4:2:1, escalation [2], \
         {NODES} nodes x 3 slots"
    );

    let out = Mutex::new(&mut outcome);
    let none = |_: &JobResult| {};
    // Set-up: generate the inputs, start the server and warm it up.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        // Generating the inputs is part of set-up; `jobs` already holds
        // the same inputs next to their reference outputs.
        std::hint::black_box(inputs(args.seed));
        let s = JobServer::start(server_config());
        closed_loop(&s, &jobs, Duration::ZERO, WARMUP, &out, &none);
        setups.push(start.elapsed().as_secs_f64());
        if let Some(old) = server.replace(s) {
            old.shutdown();
        }
    }
    let server = server.expect("at least one set-up");

    let window = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let plain = closed_loop(&server, &jobs, window, 1, &out, &none);
    server.shutdown();
    let job_ms: Vec<f64> = plain.iter().map(|s| s.job_ms).collect();
    if !args.trace {
        let f = &mut out.into_inner().expect("outcome lock poisoned").figures;
        f.push("setup_s", median(&setups), "s");
        f.push("job_ms_p50", median(&job_ms), "ms");
        let completed: Vec<(f64, f64)> = plain.iter().map(|s| (s.completed_s, s.job_ms)).collect();
        let (p90, per_s) = windowed(&completed);
        f.push("job_ms_p90", p90, "ms");
        f.push("jobs_per_s", per_s, "1/s");
        f.push("peak_rss_mb", own_peak_rss_mb()?, "MB");
        println!("samples: {} jobs timed", plain.len());
        return Ok(outcome);
    }

    // The traced half: a fresh server with a memory tracer, per-job
    // metrics hubs and a server-wide hub for the compute-pool counters.
    let (tracer, sink) = Tracer::memory();
    let hub = Metrics::new();
    let traced_server = JobServer::start(ServerConfig {
        tracer,
        job_metrics: true,
        metrics: hub.clone(),
        ..server_config()
    });
    let spans = Mutex::new(Spans::default());
    let per_job = Mutex::new(TracedJobs::default());
    let drain = || {
        let mut spans = spans.lock().expect("span lock poisoned");
        for e in sink.take() {
            let begin = match e.phase {
                Phase::Begin => true,
                Phase::End => false,
                _ => continue,
            };
            let job = u64::from(e.pid / JOB_PID_STRIDE);
            spans.event(job, e.name, begin, e.pid, e.tid, e.wall_ns);
        }
    };
    let done = |r: &JobResult| {
        let mut per_job = per_job.lock().expect("per-job lock poisoned");
        if let Some(snapshot) = &r.snapshot {
            let heartbeats = counter_sum(snapshot, "cbft_heartbeats_total");
            per_job.heartbeats.push(heartbeats);
            let shuffled = counter_sum(snapshot, "cbft_shuffle_bytes_total");
            per_job.shuffle_bytes.push(shuffled);
        }
        if let Ok(o) = &r.outcome {
            per_job.rounds = o.replicas_per_round().to_vec();
            per_job.reports = o.transcript().len();
        }
        drop(per_job);
        if r.id.is_multiple_of(32) {
            drain();
        }
    };
    let traced = closed_loop(&traced_server, &jobs, window, 1, &out, &done);
    traced_server.shutdown();
    drain();
    let spans = spans.into_inner().expect("span lock poisoned");
    let per_job = per_job.into_inner().expect("per-job lock poisoned");
    if per_job.rounds.is_empty() {
        return Err("no traced job completed".to_owned());
    }

    let f = &mut out.into_inner().expect("outcome lock poisoned").figures;
    let job0 = &jobs[0];
    let csv: String = job0
        .input
        .iter()
        .map(|r| cli::render_record(r) + "\n")
        .collect();
    let shape = JobShape {
        script,
        input_name: twitter::INPUT,
        csv: &csv,
        input: &job0.input,
        output: &job0.reference,
        replicas: per_job.rounds.iter().sum(),
        nodes: NODES,
        slots: 3,
    };
    probes::library_layers(&shape, f);
    f.push(
        "mapreduce.map_busy_ms",
        median(&spans.busy_ms(&[MAP])),
        "ms",
    );
    f.push(
        "mapreduce.reduce_busy_ms",
        median(&spans.busy_ms(&[REDUCE])),
        "ms",
    );
    f.push(
        "mapreduce.shuffle_bytes",
        median(&per_job.shuffle_bytes),
        "bytes",
    );
    f.push("mapreduce.heartbeats", median(&per_job.heartbeats), "count");
    let pool = hub.snapshot();
    let jobs_traced = traced.len().max(1) as f64;
    f.push(
        "mapreduce.pool_tasks",
        counter_sum(&pool, "cbft_pool_tasks_dispatched_total") / jobs_traced,
        "count",
    );
    f.push(
        "mapreduce.pool_stolen",
        counter_sum(&pool, "cbft_pool_tasks_stolen_total") / jobs_traced,
        "count",
    );
    f.push("core.replicas", shape.replicas as f64, "count");
    f.push("core.rounds", per_job.rounds.len() as f64, "count");
    f.push("core.reports", per_job.reports as f64, "count");
    let traced_ms: Vec<f64> = traced.iter().map(|s| s.job_ms).collect();
    let traced_p50 = median(&traced_ms);
    probes::breakdown(traced_p50, median(&spans.busy_ms(&REPLICA)), f);
    server_layer(&plain, f);
    let plain_p50 = median(&job_ms);
    f.push("trace.job_ms_p50", traced_p50, "ms");
    f.push(
        "trace.overhead_pct",
        100.0 * (traced_p50 / plain_p50 - 1.0),
        "%",
    );
    println!(
        "samples: {} untraced and {} traced jobs, untraced p50 {plain_p50} ms",
        plain.len(),
        traced.len()
    );
    Ok(outcome)
}

/// The server layer: time inside `submit`, queueing and execution as
/// `JobResult` reports them, and the share of job time spent executing.
fn server_layer(samples: &[Sample], f: &mut Figures) {
    let of = |g: fn(&Sample) -> f64| samples.iter().map(g).collect::<Vec<f64>>();
    f.push("server.submit_us_p50", median(&of(|s| s.submit_us)), "us");
    f.push(
        "server.queue_ms_p50",
        median(&of(|s| s.queue_us as f64 / 1e3)),
        "ms",
    );
    f.push(
        "server.exec_ms_p50",
        median(&of(|s| s.exec_us as f64 / 1e3)),
        "ms",
    );
    let exec: u64 = samples.iter().map(|s| s.exec_us).sum();
    let total: u64 = samples.iter().map(|s| s.total_us).sum();
    f.push(
        "server.exec_share",
        exec as f64 / total.max(1) as f64,
        "ratio",
    );
}

/// Submits one job of a one-shot workload to a fresh server and records
/// the server layer for it; returns the job's correctness verdict.
pub fn probe_one(
    spec: JobSpec,
    output: &str,
    reference: &[Record],
    f: &mut Figures,
) -> Result<(), String> {
    let server = JobServer::start(server_config());
    let start = Instant::now();
    let submitted = server.submit(spec);
    let submit_us = start.elapsed().as_secs_f64() * 1e6;
    let result = match submitted {
        SubmitOutcome::Admitted(h) => h.wait(),
        SubmitOutcome::Rejected(r) => return Err(format!("server probe rejected: {r}")),
    };
    let job_ms = start.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    server_layer(
        &[Sample {
            job_ms,
            completed_s: 0.0,
            submit_us,
            queue_us: result.queue_us,
            exec_us: result.exec_us,
            total_us: result.total_us,
        }],
        f,
    );
    check(&result, output, reference)
}

/// Sum of every scalar sample of `name`.
fn counter_sum(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot
        .samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            SampleValue::Counter(v) | SampleValue::Gauge(v) => v as f64,
            SampleValue::Histogram(_) => 0.0,
        })
        .fold(0.0, |sum, v| sum + v)
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn own_peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}
