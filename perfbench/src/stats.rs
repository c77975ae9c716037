//! Order statistics and wall-clock span bookkeeping.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Nearest-rank percentile (`q` in `(0, 1]`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Parts the timed window's jobs are cut into for `job_ms_p90` and
/// `jobs_per_s`.
pub const PARTS: usize = 5;

/// `job_ms_p90` and `jobs_per_s` of a timed window, from each completed
/// job's `(completed_s, job_ms)`, `completed_s` counted from the
/// window's start. The jobs, in completion order, are cut into `PARTS`
/// runs of (nearly) equal count; a part lasts from the previous part's
/// last completion (the window's start for the first) to its own last.
/// Each figure is the median over the parts of that part's p90 and of
/// its jobs per second. A host slowdown that covers fewer than half of
/// the parts moves neither, where it would move a whole-window p90 or
/// mean as soon as it covered a tenth of the jobs.
pub fn windowed(done: &[(f64, f64)]) -> (f64, f64) {
    let mut done = done.to_vec();
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = done.len();
    let (mut p90s, mut rates) = (Vec::new(), Vec::new());
    let mut from = 0.0;
    for i in 0..PARTS {
        let part = &done[i * n / PARTS..(i + 1) * n / PARTS];
        let Some(&(to, _)) = part.last() else {
            continue;
        };
        let ms: Vec<f64> = part.iter().map(|&(_, ms)| ms).collect();
        p90s.push(percentile(&ms, 0.9));
        if to > from {
            rates.push(part.len() as f64 / (to - from));
        }
        from = to;
    }
    (median(&p90s), median(&rates))
}

/// Median wall time in ms of repeated calls to `f`: at least 3 calls
/// and 50 ms in total, at most 1000 calls.
pub fn median_ms(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || (start.elapsed().as_millis() < 50 && times.len() < 1000) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Total length of the union of half-open `[start, end)` intervals.
/// Overlapping spans (tasks running concurrently on several workers)
/// count once, so the result never exceeds the enclosing span.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// The span kinds the breakdown reads from a trace.
pub const MAP: &str = "map_task";
pub const REDUCE: &str = "reduce_task";
/// Replica lifetimes: `replica` on the `--threads` path, `attempt` on
/// the sequential pipeline.
pub const REPLICA: [&str; 2] = ["replica", "attempt"];

/// Closed wall-clock spans grouped by job, built from begin/end events
/// matched on `(name, pid, tid)`.
#[derive(Default)]
pub struct Spans {
    open: HashMap<(String, u32, u32), Vec<u64>>,
    closed: BTreeMap<u64, HashMap<String, Vec<(u64, u64)>>>,
}

impl Spans {
    /// Feeds one `B` (`begin`) or `E` event. Only the span kinds the
    /// breakdown reads are kept.
    pub fn event(&mut self, job: u64, name: &str, begin: bool, pid: u32, tid: u32, wall_ns: u64) {
        if name != MAP && name != REDUCE && !REPLICA.contains(&name) {
            return;
        }
        let stack = self.open.entry((name.to_owned(), pid, tid)).or_default();
        if begin {
            stack.push(wall_ns);
        } else if let Some(start) = stack.pop() {
            self.closed
                .entry(job)
                .or_default()
                .entry(name.to_owned())
                .or_default()
                .push((start, wall_ns.max(start)));
        }
    }

    /// Per-job busy milliseconds: the union of the job's spans of `kinds`.
    pub fn busy_ms(&self, kinds: &[&str]) -> Vec<f64> {
        self.closed
            .values()
            .map(|by_kind| {
                let mut all: Vec<(u64, u64)> = kinds
                    .iter()
                    .filter_map(|k| by_kind.get(*k))
                    .flatten()
                    .copied()
                    .collect();
                union_len(&mut all) as f64 / 1e6
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn windowed_figures_ignore_a_slow_minority_of_parts() {
        // Twenty 100 ms jobs back to back, except that the host slowed
        // for two of them, which took 400 ms.
        let mut done = Vec::new();
        let mut at = 0.0;
        for i in 0..20 {
            let ms = if i == 4 || i == 5 { 400.0 } else { 100.0 };
            at += ms / 1e3;
            done.push((at, ms));
        }
        done.reverse();
        let (p90, rate) = windowed(&done);
        assert_eq!(p90, 100.0);
        assert!((rate - 10.0).abs() < 1e-9, "{rate}");
        // Fewer jobs than parts.
        assert_eq!(windowed(&[(2.0, 7.0)]), (7.0, 0.5));
    }

    #[test]
    fn union_counts_overlap_once() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(&mut [(0, 10), (2, 3)]), 10);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn spans_group_by_job_and_kind() {
        let mut s = Spans::default();
        s.event(0, "map_task", true, 0, 0, 0);
        s.event(0, "map_task", true, 1, 0, 5);
        s.event(0, "map_task", false, 0, 0, 10);
        s.event(0, "map_task", false, 1, 0, 12);
        s.event(0, "heartbeat", true, 0, 0, 1);
        s.event(1, "reduce_task", true, 0, 0, 0);
        s.event(1, "reduce_task", false, 0, 0, 2_000_000);
        assert_eq!(s.busy_ms(&[MAP]), vec![12e-6, 0.0]);
        assert_eq!(s.busy_ms(&[REDUCE]), vec![0.0, 2.0]);
    }
}
