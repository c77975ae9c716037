//! One-shot workloads: each job is one `cbft` process, timed from spawn
//! to exit, reading its input from CSV and printing every output row.

use std::collections::HashMap;
use std::io::Read;
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use clusterbft_repro::cli;
use clusterbft_repro::dataflow::interp::interpret;
use clusterbft_repro::dataflow::{Record, Script};
use clusterbft_repro::server::JobSpec;
use clusterbft_repro::workloads::{twitter, Workload};
use serde::{Content, Deserialize};

use crate::probes::{self, JobShape};
use crate::stats::{median, windowed, Spans, MAP, REDUCE, REPLICA};
use crate::{serve, Args, Outcome, CBFT_SEED};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// One `cbft` workload.
pub struct OneShot {
    pub name: &'static str,
    pub edges: usize,
    pub generate: fn(u64, usize) -> Workload,
    /// Execution flags, beyond the ones every job passes.
    pub flags: &'static [&'static str],
    /// The run must escalate (take more than one round) to verify.
    pub escalates: bool,
}

/// Cluster shape every one-shot job passes explicitly.
const NODES: usize = 16;
const SLOTS: usize = 3;

pub const GROUPCOUNT: OneShot = OneShot {
    name: "groupcount_300k",
    edges: 300_000,
    generate: twitter::follower_analysis,
    flags: &[
        "--threads",
        "2",
        "--compute-threads",
        "1",
        "--f",
        "1",
        "--replication",
        "optimistic",
    ],
    escalates: false,
};

pub const TWOHOP: OneShot = OneShot {
    name: "twohop_seq_fault",
    edges: 15_000,
    generate: twitter::two_hop_analysis,
    flags: &[
        "--compute-threads",
        "1",
        "--f",
        "1",
        "--replication",
        "optimistic",
        "--fault",
        "0:commission",
    ],
    escalates: true,
};

/// One finished, checked job.
struct Job {
    ms: f64,
    /// Peak resident set of this job's `cbft` process, in MiB.
    rss_mb: f64,
    report: Report,
}

/// Facts one job's run report states.
struct Report {
    /// Replicas per round (`--threads`) or attempt (sequential).
    replicas: Vec<usize>,
    digest_reports: usize,
}

/// The generated inputs of one run and their reference output.
struct Prepared {
    workload: Workload,
    /// Holds the script, the CSV and the per-job trace files.
    dir: PathBuf,
    csv: String,
    /// The input as `cbft` parses it from the CSV.
    input: Vec<Record>,
    /// The interpreter's output, sorted.
    reference: Vec<Record>,
}

impl OneShot {
    /// Generates the seeded input and writes the script and CSV files.
    fn write_inputs(&self, seed: u64, dir: &Path) -> Result<(Workload, String), String> {
        let workload = (self.generate)(seed, self.edges);
        let mut csv = String::with_capacity(16 * workload.records.len());
        for r in &workload.records {
            csv.push_str(&cli::render_record(r));
            csv.push('\n');
        }
        write(&dir.join("job.pig"), workload.script)?;
        write(&dir.join("input.csv"), &csv)?;
        Ok((workload, csv))
    }

    fn prepare(&self, args: &Args) -> Result<Prepared, String> {
        let dir = args.work_dir.join(self.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (workload, csv) = self.write_inputs(args.seed, &dir)?;
        let input: Vec<Record> = csv.lines().map(cli::parse_record).collect();
        let plan = Script::parse(workload.script)
            .map_err(|e| format!("script: {e}"))?
            .into_plan();
        let inputs = HashMap::from([(workload.input_name.to_owned(), input.clone())]);
        let result = interpret(&plan, &inputs).map_err(|e| format!("reference: {e}"))?;
        let mut reference = result
            .output(workload.outputs[0])
            .ok_or("reference run stores no output")?
            .to_vec();
        reference.sort_unstable();
        Ok(Prepared {
            dir,
            workload,
            csv,
            input,
            reference,
        })
    }

    /// The `cbft` invocation of one job; a traced job also writes its
    /// trace and metrics files into the work directory.
    fn command(&self, args: &Args, p: &Prepared, traced: bool) -> Command {
        let mut cmd = Command::new(&args.cbft);
        cmd.arg(p.dir.join("job.pig"))
            .arg("--input")
            .arg(format!(
                "{}={}",
                p.workload.input_name,
                p.dir.join("input.csv").display()
            ))
            .args(["--seed", &CBFT_SEED.to_string()])
            .args(["--nodes", &NODES.to_string(), "--slots", &SLOTS.to_string()])
            .args(["--points", "2", "--adversary", "strong"])
            .args(self.flags)
            .args(["--show", &p.reference.len().to_string()])
            .env_remove("CBFT_COMPUTE_THREADS")
            .env_remove("CBFT_SEED")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if traced {
            cmd.arg("--trace").arg(p.dir.join("trace.json"));
            cmd.arg("--metrics-json").arg(p.dir.join("metrics.json"));
        }
        cmd
    }

    /// Runs one job to exit and checks what it printed. Its stderr
    /// goes straight to the benchmark's stderr.
    fn job(&self, mut cmd: Command, p: &Prepared) -> Result<Job, String> {
        let start = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("cannot run cbft: {e}"))?;
        let mut stdout = Vec::new();
        let read = child
            .stdout
            .take()
            .expect("stdout is piped")
            .read_to_end(&mut stdout);
        let (status, rss_mb) = reap(child.id())?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        read.map_err(|e| format!("reading cbft's stdout: {e}"))?;
        if !status.success() {
            return Err(format!("cbft exited with {status}"));
        }
        let stdout = String::from_utf8(stdout).map_err(|_| "cbft printed non-UTF-8")?;
        let report = self.check(&stdout, p)?;
        Ok(Job { ms, rss_mb, report })
    }

    /// Checks one job's stdout: verified, escalated when it must, and
    /// the full output listing equal to the reference as a multiset.
    fn check(&self, stdout: &str, p: &Prepared) -> Result<Report, String> {
        let head = stdout.lines().next().unwrap_or("");
        if !head.starts_with("VERIFIED") {
            return Err(format!("not verified: {head}"));
        }
        // `replicas per round: [..]` ends the head line on the `--threads`
        // path; `replicas per attempt: [..]` is the sequential path's
        // second line.
        let counts = stdout
            .lines()
            .find_map(|l| l.find("replicas per ").map(|at| &l[at..]))
            .ok_or("run report has no replica counts")?;
        let list = counts
            .split_once('[')
            .and_then(|(_, rest)| rest.split_once(']'))
            .ok_or("malformed replica counts")?
            .0;
        let replicas: Vec<usize> = list
            .split(',')
            .map(|n| n.trim().parse().map_err(|_| "malformed replica counts"))
            .collect::<Result<_, _>>()?;
        let digest_reports = counts
            .rsplit_once("digest reports: ")
            .and_then(|(_, n)| n.trim().parse().ok())
            .ok_or("run report has no digest report count")?;
        if self.escalates && replicas.len() < 2 {
            return Err(format!("expected an escalation, got replicas {replicas:?}"));
        }

        let name = p.workload.outputs[0];
        let header = format!("== {name} (");
        let mut lines = stdout.lines().skip_while(|l| !l.starts_with(&header));
        let rows: usize = lines
            .next()
            .and_then(|l| l[header.len()..].split_once(' '))
            .and_then(|(n, _)| n.parse().ok())
            .ok_or_else(|| format!("output `{name}` missing from the listing"))?;
        if rows != p.reference.len() {
            return Err(format!(
                "output `{name}` has {rows} rows, reference {}",
                p.reference.len()
            ));
        }
        let mut got: Vec<Record> = lines.take(rows).map(cli::parse_record).collect();
        got.sort_unstable();
        if got != p.reference {
            return Err(format!("output `{name}` differs from the reference"));
        }
        Ok(Report {
            replicas,
            digest_reports,
        })
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs a one-shot workload: set-up, then jobs until the window closes.
pub fn run(w: &OneShot, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let p = w.prepare(args)?;
    println!(
        "workload {}: {} edges in, {} rows out, flags: {}",
        w.name,
        p.input.len(),
        p.reference.len(),
        w.flags.join(" ")
    );

    // Set-up: generate and write the inputs, then one warm-up job.
    let mut setups = Vec::new();
    let mut peak_rss_mb = 0f64;
    for _ in 0..SETUPS {
        let start = Instant::now();
        w.write_inputs(args.seed, &p.dir)?;
        let job = w.job(w.command(args, &p, false), &p);
        setups.push(start.elapsed().as_secs_f64());
        out.record(job.map(|j| peak_rss_mb = peak_rss_mb.max(j.rss_mb)));
    }

    let mut plain = Vec::new();
    // Untraced jobs as `(completed_s, job_ms)`, for `stats::windowed`.
    let mut completed = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Spans::default();
    let mut last_metrics = Content::Null;
    let mut last_report = None;
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    for i in 0u64.. {
        // At least one job of each kind, even in a short window.
        if start.elapsed() >= window && i > u64::from(args.trace) {
            break;
        }
        let traced_job = args.trace && i % 2 == 1;
        match w.job(w.command(args, &p, traced_job), &p) {
            Ok(job) if traced_job => {
                read_trace(&p.dir.join("trace.json"), i, &mut spans)?;
                last_metrics = read_json(&p.dir.join("metrics.json"))?;
                traced.push(job.ms);
                last_report = Some(job.report);
                out.record(Ok(()));
            }
            Ok(job) => {
                plain.push(job.ms);
                completed.push((start.elapsed().as_secs_f64(), job.ms));
                peak_rss_mb = peak_rss_mb.max(job.rss_mb);
                last_report = Some(job.report);
                out.record(Ok(()));
            }
            Err(e) => out.record(Err(e)),
        }
    }

    let f = &mut out.figures;
    if !args.trace {
        let (p90, per_s) = windowed(&completed);
        f.push("setup_s", median(&setups), "s");
        f.push("job_ms_p50", median(&plain), "ms");
        f.push("job_ms_p90", p90, "ms");
        f.push("jobs_per_s", per_s, "1/s");
        f.push("peak_rss_mb", peak_rss_mb, "MB");
        println!("samples: {} jobs timed", plain.len());
        return Ok(out);
    }

    let report = last_report.ok_or("no job completed")?;
    let shape = JobShape {
        script: p.workload.script,
        input_name: p.workload.input_name,
        csv: &p.csv,
        input: &p.input,
        output: &p.reference,
        replicas: report.replicas.iter().sum(),
        nodes: NODES,
        slots: SLOTS,
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
    let counter = |name: &str| metric_sum(&last_metrics, name);
    f.push(
        "mapreduce.shuffle_bytes",
        counter("cbft_shuffle_bytes_total"),
        "bytes",
    );
    f.push(
        "mapreduce.heartbeats",
        counter("cbft_heartbeats_total"),
        "count",
    );
    f.push(
        "mapreduce.pool_tasks",
        counter("cbft_pool_tasks_dispatched_total"),
        "count",
    );
    f.push(
        "mapreduce.pool_stolen",
        counter("cbft_pool_tasks_stolen_total"),
        "count",
    );
    f.push("core.replicas", shape.replicas as f64, "count");
    f.push("core.rounds", report.replicas.len() as f64, "count");
    f.push("core.reports", report.digest_reports as f64, "count");
    let traced_ms = median(&traced);
    probes::breakdown(traced_ms, median(&spans.busy_ms(&REPLICA)), f);

    // The same job submitted to a `JobServer`, with the workload's
    // `--fault` (if any) on replica 0 and the `cbft` escalation ladder.
    let mut spec = JobSpec::new("probe", p.workload.script)
        .input(p.workload.input_name, p.input.clone())
        .exec(serve::exec_config(NODES, vec![2, 3, 4]));
    if let Some(at) = w.flags.iter().position(|&flag| flag == "--fault") {
        let (uid, behavior) = cli::parse_fault(w.flags[at + 1]).map_err(|e| e.to_string())?;
        spec = spec.fault(uid, behavior);
    }
    let job = serve::probe_one(spec, p.workload.outputs[0], &p.reference, f);
    out.record(job);

    let f = &mut out.figures;
    let plain_ms = median(&plain);
    f.push("trace.job_ms_p50", traced_ms, "ms");
    f.push(
        "trace.overhead_pct",
        100.0 * (traced_ms / plain_ms - 1.0),
        "%",
    );
    println!(
        "samples: {} untraced and {} traced jobs, untraced p50 {plain_ms} ms",
        plain.len(),
        traced.len()
    );
    Ok(out)
}

fn read_json(path: &Path) -> Result<Content, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The items of the array member `key`, or none.
fn items<'a>(doc: &'a Content, key: &str) -> &'a [Content] {
    match doc.map_get(key) {
        Some(Content::Seq(items)) => items,
        _ => &[],
    }
}

fn text<'a>(doc: &'a Content, key: &str) -> Option<&'a str> {
    match doc.map_get(key) {
        Some(Content::Str(s)) => Some(s),
        _ => None,
    }
}

fn number(doc: &Content, key: &str) -> Option<f64> {
    doc.map_get(key).and_then(|v| f64::from_content(v).ok())
}

/// Feeds the wall-clock spans of one `cbft --trace` file into `spans`.
fn read_trace(path: &Path, job: u64, spans: &mut Spans) -> Result<(), String> {
    let doc = read_json(path)?;
    for e in items(&doc, "traceEvents") {
        let (Some(name), Some(ph)) = (text(e, "name"), text(e, "ph")) else {
            continue;
        };
        if ph != "B" && ph != "E" {
            continue;
        }
        let wall_ns = e
            .map_get("args")
            .and_then(|a| number(a, "wall_ns"))
            .ok_or_else(|| format!("{}: span without wall_ns", path.display()))?;
        spans.event(
            job,
            name,
            ph == "B",
            number(e, "pid").unwrap_or(0.0) as u32,
            number(e, "tid").unwrap_or(0.0) as u32,
            wall_ns as u64,
        );
    }
    Ok(())
}

/// Sum of every sample of the counter `name` in a `--metrics-json` file.
fn metric_sum(doc: &Content, name: &str) -> f64 {
    items(doc, "metrics")
        .iter()
        .filter(|m| text(m, "name") == Some(name))
        .filter_map(|m| number(m, "value"))
        .fold(0.0, |sum, v| sum + v)
}

/// Waits for the child `pid` and returns its exit status and peak
/// resident set in MiB. wait4(2) reports the usage of this one child,
/// unlike getrusage(RUSAGE_CHILDREN), whose peak also covers any
/// compiler this process or the one it replaced waited for before.
fn reap(pid: u32) -> Result<(ExitStatus, f64), String> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs
    /// starting with `ru_maxrss` (KiB).
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    }
    let pid = pid as i32;
    let mut status = 0;
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `status` and `usage` are live, writable values; `usage` is
    // laid out as the C `struct rusage` wait4(2) fills on 64-bit Linux.
    while unsafe { wait4(pid, &mut status, 0, &mut usage) } != pid {
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("waiting for cbft: {err}"));
        }
    }
    Ok((ExitStatus::from_raw(status), usage.maxrss as f64 / 1024.0))
}
