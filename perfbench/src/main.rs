//! End-to-end benchmark of the ClusterBFT reproduction.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           --cbft PATH --work-dir DIR [--commit ID] [--source ID]
//! ```
//!
//! Workloads (see `README.md` for why each was chosen):
//!
//! * `groupcount_300k`: one `cbft --threads 2` invocation per job, the
//!   follower group-count over 300k Zipf edges read from CSV;
//! * `twohop_seq_fault`: one sequential-path `cbft` invocation per job,
//!   the two-hop self-join over 15k edges with a commission fault that
//!   forces an escalation;
//! * `server_small_jobs`: an in-process `JobServer` serving 300-edge
//!   group-count jobs to a closed loop of four clients.
//!
//! Every published output is compared, as a sorted multiset, against
//! the reference interpreter on the same inputs. With `--trace 0` the
//! run prints the end-to-end metrics; with `--trace 1` it interleaves
//! traced and untraced jobs and prints the per-layer breakdown. The
//! last line of stdout is one JSON object; the exit code is 1 when any
//! job failed or published a wrong output.

mod oneshot;
mod probes;
mod serve;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// The `cbft` simulation seed. It stays fixed; only the data seed varies.
pub const CBFT_SEED: u64 = 1;

const USAGE: &str =
    "usage: perfbench --workload groupcount_300k|twohop_seq_fault|server_small_jobs \
--seed N --seconds S --trace 0|1 --cbft PATH --work-dir DIR [--commit ID] [--source ID]";

/// Parsed command line.
pub struct Args {
    pub workload: String,
    /// Data seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// The `cbft` binary the one-shot workloads spawn.
    pub cbft: PathBuf,
    /// Work directory for generated inputs and per-job trace files.
    pub work_dir: PathBuf,
    pub commit: String,
    pub source: String,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut cbft, mut work_dir) = (None, None);
        let (mut commit, mut source) = ("unknown".to_owned(), "unknown".to_owned());
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("expected 0 < S <= 600"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    })
                }
                "--cbft" => cbft = Some(PathBuf::from(value)),
                "--work-dir" => work_dir = Some(PathBuf::from(value)),
                "--commit" => commit = value,
                "--source" => source = value,
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            cbft: cbft.ok_or("--cbft is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
            commit,
            source,
        })
    }
}

/// Named measurements with units, in report order.
#[derive(Default)]
pub struct Figures(Vec<(&'static str, f64, &'static str)>);

impl Figures {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// A value pushed earlier.
    ///
    /// # Panics
    ///
    /// Panics if `name` was never pushed: a bug in the benchmark.
    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
            .unwrap_or_else(|| panic!("metric {name} not measured yet"))
    }
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Jobs attempted, warm-up jobs included.
    pub attempted: u64,
    /// Jobs that failed, were rejected, did not verify, skipped the
    /// expected escalation, or published an output that differs from
    /// the reference.
    pub failed: u64,
    /// The first few failure reasons, for stderr.
    pub failures: Vec<String>,
    pub figures: Figures,
}

impl Outcome {
    /// Counts one job; `Err` carries why it counts as failed.
    pub fn record(&mut self, job: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = job {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pin the environment: the CI matrix sets CBFT_COMPUTE_THREADS, and
    // every execution knob is passed explicitly instead.
    std::env::remove_var("CBFT_COMPUTE_THREADS");
    std::env::remove_var("CBFT_SEED");

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} data_seed={} cbft_seed={CBFT_SEED} seconds={} trace={} \
         host_cores={cores} commit={} source={}",
        args.workload, args.seed, args.seconds, args.trace as u8, args.commit, args.source
    );
    let run = match args.workload.as_str() {
        "groupcount_300k" => oneshot::run(&oneshot::GROUPCOUNT, &args),
        "twohop_seq_fault" => oneshot::run(&oneshot::TWOHOP, &args),
        "server_small_jobs" => serve::run(&args),
        other => Err(format!("unknown workload `{other}`")),
    };
    // The work directory holds only generated inputs and trace files.
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for why in &outcome.failures {
        eprintln!("perfbench: failed job: {why}");
    }

    let fail_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<30} {fail_ratio} ratio ({} of {} jobs)",
        "fail_ratio", outcome.failed, outcome.attempted
    );
    let mut metrics = Vec::new();
    for &(name, value, unit) in &outcome.figures.0 {
        println!("{name:<30} {value} {unit}");
        assert!(value.is_finite(), "{name} is not a finite number");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
