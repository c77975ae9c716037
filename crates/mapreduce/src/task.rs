//! Pure task execution: the real data movement of map and reduce tasks.
//!
//! These functions actually run the operator pipelines over records and
//! compute the verification-point digests, returning work counters that the
//! engine converts to virtual time through the cost model. Keeping them
//! pure (no cluster state) makes the task semantics directly testable.

use std::sync::Arc;

use cbft_dataflow::compile::Site;
use cbft_dataflow::interp::{
    group_records_owned, join_records, order_records_owned, project_record,
};
use cbft_dataflow::{LogicalPlan, Operator, Record, Value, VertexId};
use cbft_digest::{
    parent_count, parent_level, parent_range, ChunkedDigest, ChunkedSummary, Digest,
};

use crate::compute::ComputePool;
use crate::fault::{corrupt_record, TaskFate};
use crate::metrics::data_plane;
use crate::spec::{ExecJob, VpSite};

/// A record tagged with its join side.
pub(crate) type Tagged = (usize, Record);

/// A stream of records flowing through a task pipeline.
///
/// Map tasks read their split as a borrowed slice of the `Arc`-shared input
/// file; per-record operators keep records borrowed as long as possible
/// (filters collect surviving *references*, only projections produce owned
/// records), and records are cloned at most once — at the partition/output
/// boundary, and only when the pipeline never produced owned records.
enum RecordStream<'a> {
    /// A contiguous borrowed slice (the untouched input split).
    Slice(&'a [Record]),
    /// A filtered subset of borrowed records.
    Refs(Vec<&'a Record>),
    /// Records owned by the task (produced by projections or corruption).
    Owned(Vec<Record>),
}

enum RecordStreamIter<'b, 'a> {
    Slice(std::slice::Iter<'b, Record>),
    Refs(std::iter::Copied<std::slice::Iter<'b, &'a Record>>),
}

impl<'b, 'a: 'b> Iterator for RecordStreamIter<'b, 'a> {
    type Item = &'b Record;

    fn next(&mut self) -> Option<&'b Record> {
        match self {
            RecordStreamIter::Slice(i) => i.next(),
            RecordStreamIter::Refs(i) => i.next(),
        }
    }
}

impl<'a> RecordStream<'a> {
    fn len(&self) -> usize {
        match self {
            RecordStream::Slice(s) => s.len(),
            RecordStream::Refs(v) => v.len(),
            RecordStream::Owned(v) => v.len(),
        }
    }

    fn iter(&self) -> RecordStreamIter<'_, 'a> {
        match self {
            RecordStream::Slice(s) => RecordStreamIter::Slice(s.iter()),
            RecordStream::Owned(v) => RecordStreamIter::Slice(v.iter()),
            RecordStream::Refs(v) => RecordStreamIter::Refs(v.iter().copied()),
        }
    }

    fn byte_size(&self) -> u64 {
        self.iter().map(Record::byte_size).sum()
    }

    /// Materializes the stream as owned records, cloning only when the
    /// records are still borrowed from the input split.
    fn into_owned(self) -> Vec<Record> {
        match self {
            RecordStream::Owned(v) => v,
            RecordStream::Slice(s) => {
                data_plane::count_records_cloned(s.len() as u64);
                s.to_vec()
            }
            RecordStream::Refs(v) => {
                data_plane::count_records_cloned(v.len() as u64);
                v.into_iter().cloned().collect()
            }
        }
    }
}

/// Work performed by a task, in units the cost model can price.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Work {
    /// Record×operator applications.
    pub record_ops: u64,
    /// Bytes fed through digest functions.
    pub digest_bytes: u64,
    /// Bytes of records read by the task.
    pub bytes_in: u64,
    /// Bytes of records produced by the task.
    pub bytes_out: u64,
}

/// Result of a map task.
#[derive(Clone, Debug)]
pub(crate) struct MapTaskOutput {
    /// When the job has a shuffle: records per reduce partition.
    /// Otherwise a single "partition 0" holding the task output.
    pub partitions: Vec<Vec<Tagged>>,
    /// Digest summaries produced at map-side verification points.
    pub digests: Vec<(VpSite, ChunkedSummary)>,
    /// Work counters.
    pub work: Work,
}

/// Result of a reduce/collector task.
#[derive(Clone, Debug)]
pub(crate) struct ReduceTaskOutput {
    /// Output records of the task.
    pub records: Vec<Record>,
    /// Digest summaries produced at shuffle/reduce verification points.
    pub digests: Vec<(VpSite, ChunkedSummary)>,
    /// Work counters.
    pub work: Work,
}

/// Executes one map task: applies the input pipeline to a split, digests
/// at map-side verification points, and partitions the result for the
/// shuffle.
///
/// The split is borrowed (a window into the `Arc`-shared input file);
/// records are cloned only where they must become owned — at the partition
/// boundary, and only if the pipeline kept them borrowed until then.
pub(crate) fn run_map_task(
    job: &ExecJob,
    input_index: usize,
    records: &[Record],
    fate: TaskFate,
    pool: &ComputePool,
) -> MapTaskOutput {
    debug_assert_ne!(fate, TaskFate::Omitted, "omitted tasks never execute");
    let plan = &job.plan;
    let input = &job.inputs[input_index];
    let mut work = Work {
        bytes_in: byte_size(records),
        ..Work::default()
    };
    let mut stream = if fate == TaskFate::Corrupt {
        // A commission fault: the node processes a corrupted view of the
        // data, so every downstream digest and output reflects it. The
        // corrupting clone happens only on this (cold) fault path.
        let mut owned = records.to_vec();
        for r in &mut owned {
            corrupt_record(r);
        }
        RecordStream::Owned(owned)
    } else {
        RecordStream::Slice(records)
    };

    let mut digests = Vec::new();
    for (pos, &vid) in input.pipeline.iter().enumerate() {
        stream = apply_op(plan, vid, stream, &mut work);
        for vp in &job.verification_points {
            if let Site::MapInput {
                input: vi,
                pos: vp_pos,
                ..
            } = vp.site
            {
                if vi == input_index && vp_pos == pos {
                    digests.push((
                        *vp,
                        digest_stream(stream.iter(), job.digest_granularity, &mut work, pool),
                    ));
                }
            }
        }
    }

    let partitions = if let Some(shuffle) = job.shuffle {
        if let Some(comb) = &job.combiner {
            // Map-side combining: one [key, partials...] record per local
            // key; partition by the leading key (same hash as the raw
            // records would have used).
            work.record_ops += 2 * stream.len() as u64;
            let owned = stream.into_owned();
            let partials = comb.partials(&owned);
            let n = job.reduce_task_count.max(1);
            let mut parts: Vec<Vec<Tagged>> = vec![Vec::new(); n];
            let mut key_buf = Vec::new();
            for r in partials {
                work.bytes_out += r.byte_size();
                let p = key_partition(r.get(0), n, &mut key_buf);
                parts[p].push((input.tag, r));
            }
            parts
        } else {
            partition_records(
                plan,
                shuffle,
                input.tag,
                stream,
                job.reduce_task_count,
                &mut work,
            )
        }
    } else {
        work.bytes_out = stream.byte_size();
        vec![stream
            .into_owned()
            .into_iter()
            .map(|r| (input.tag, r))
            .collect()]
    };

    MapTaskOutput {
        partitions,
        digests,
        work,
    }
}

/// Executes one reduce (or collector) task over one partition. `pool`
/// accelerates the shuffle-side sort; since the chunked parallel sort is
/// pool-size-invariant, results are identical for every pool (the engine
/// passes its own pool, standalone tests the inline default).
pub(crate) fn run_reduce_task(
    job: &ExecJob,
    mut incoming: Vec<Tagged>,
    fate: TaskFate,
    pool: &ComputePool,
) -> ReduceTaskOutput {
    debug_assert_ne!(fate, TaskFate::Omitted, "omitted tasks never execute");
    let plan = &job.plan;
    let mut work = Work {
        bytes_in: incoming.iter().map(|(_, r)| r.byte_size()).sum(),
        ..Work::default()
    };
    if fate == TaskFate::Corrupt {
        for (_, r) in &mut incoming {
            corrupt_record(r);
        }
    }

    let mut digests = Vec::new();
    let mut start_pos = 0usize;
    let mut records = match (&job.combiner, job.shuffle) {
        (Some(comb), Some(_)) => {
            // The merge produces the fused projection's output directly —
            // identical, record for record, to group + project, so digest
            // sites at reduce position 0 still correspond across replicas
            // regardless of combining. A shuffle-site point cannot be
            // served (no materialized bags); the caller must not combine
            // in that case.
            debug_assert!(
                !job.verification_points
                    .iter()
                    .any(|vp| matches!(vp.site, Site::Shuffle { .. })),
                "combiner active with a shuffle verification point"
            );
            let raw: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            work.record_ops += 2 * raw.len() as u64;
            let merged = comb.merge(&raw);
            for vp in &job.verification_points {
                if matches!(vp.site, Site::Reduce { pos: 0, .. }) {
                    digests.push((
                        *vp,
                        digest_stream(merged.iter(), job.digest_granularity, &mut work, pool),
                    ));
                }
            }
            start_pos = 1;
            merged
        }
        (None, Some(shuffle)) => {
            let out = materialize_shuffle(plan, shuffle, incoming, &mut work, pool);
            for vp in &job.verification_points {
                if matches!(vp.site, Site::Shuffle { .. }) && vp.vertex == shuffle {
                    digests.push((
                        *vp,
                        digest_stream(out.iter(), job.digest_granularity, &mut work, pool),
                    ));
                }
            }
            out
        }
        (_, None) => incoming.into_iter().map(|(_, r)| r).collect(),
    };

    for (pos, &vid) in job.reduce.iter().enumerate().skip(start_pos) {
        records = match apply_op(plan, vid, RecordStream::Owned(records), &mut work) {
            // The stream entered owned, and per-record operators never
            // borrow an owned stream back out.
            RecordStream::Owned(v) => v,
            _ => unreachable!("owned streams stay owned through apply_op"),
        };
        for vp in &job.verification_points {
            if let Site::Reduce { pos: vp_pos, .. } = vp.site {
                if vp.vertex == vid && vp_pos == pos {
                    digests.push((
                        *vp,
                        digest_stream(records.iter(), job.digest_granularity, &mut work, pool),
                    ));
                }
            }
        }
    }

    work.bytes_out = byte_size(&records);
    ReduceTaskOutput {
        records,
        digests,
        work,
    }
}

/// Applies one per-record operator to a stream. `LOAD`, `UNION` and
/// `STORE` appear in pipelines only as pass-through markers.
///
/// Borrowed streams stay borrowed through filters and limits; only
/// projections materialize new (owned) records.
fn apply_op<'a>(
    plan: &LogicalPlan,
    vid: VertexId,
    records: RecordStream<'a>,
    work: &mut Work,
) -> RecordStream<'a> {
    let op = plan.vertex(vid).op();
    work.record_ops += records.len() as u64;
    match op {
        Operator::Load { .. } | Operator::Union | Operator::Store { .. } => records,
        Operator::Filter { predicate } => {
            let keep = |r: &Record| {
                predicate
                    .eval(&cbft_dataflow::EvalContext::new(r))
                    .is_truthy()
            };
            match records {
                RecordStream::Slice(s) => {
                    RecordStream::Refs(s.iter().filter(|r| keep(r)).collect())
                }
                RecordStream::Refs(v) => {
                    RecordStream::Refs(v.into_iter().filter(|r| keep(r)).collect())
                }
                RecordStream::Owned(v) => RecordStream::Owned(v.into_iter().filter(keep).collect()),
            }
        }
        Operator::Project { exprs, .. } => {
            RecordStream::Owned(records.iter().map(|r| project_record(r, exprs)).collect())
        }
        Operator::Limit { count } => {
            let count = *count as usize;
            match records {
                RecordStream::Slice(s) => RecordStream::Slice(&s[..count.min(s.len())]),
                RecordStream::Refs(mut v) => {
                    v.truncate(count);
                    RecordStream::Refs(v)
                }
                RecordStream::Owned(mut v) => {
                    v.truncate(count);
                    RecordStream::Owned(v)
                }
            }
        }
        blocking => {
            debug_assert!(false, "blocking operator {} in a pipeline", blocking.name());
            records
        }
    }
}

/// Partitions a map task's output by shuffle key. Records still borrowed
/// from the input split are cloned here — the single unavoidable copy on
/// the map path, since partitions outlive the split borrow.
fn partition_records(
    plan: &LogicalPlan,
    shuffle: VertexId,
    tag: usize,
    records: RecordStream<'_>,
    n_partitions: usize,
    work: &mut Work,
) -> Vec<Vec<Tagged>> {
    let n = n_partitions.max(1);
    let mut parts: Vec<Vec<Tagged>> = vec![Vec::new(); n];
    let op = plan.vertex(shuffle).op().clone();
    work.record_ops += records.len() as u64;
    let mut key_buf = Vec::new();
    for r in records.into_owned() {
        work.bytes_out += r.byte_size();
        let p = match &op {
            Operator::Group { key } => key_partition(r.get(*key), n, &mut key_buf),
            Operator::Join {
                left_key,
                right_key,
            } => {
                let key = if tag == 0 { *left_key } else { *right_key };
                key_partition(r.get(key), n, &mut key_buf)
            }
            Operator::Distinct => {
                key_buf.clear();
                r.write_canonical(&mut key_buf);
                (fnv1a(&key_buf) % n as u64) as usize
            }
            // Global sort: a single range partition (the engine forces one
            // reduce task for ORDER).
            Operator::Order { .. } => 0,
            other => {
                debug_assert!(false, "non-blocking shuffle {}", other.name());
                0
            }
        };
        parts[p].push((tag, r));
    }
    parts
}

fn key_partition(key: Option<&Value>, n: usize, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    key.unwrap_or(&Value::Null).write_canonical(buf);
    (fnv1a(buf) % n as u64) as usize
}

/// Materializes the shuffle semantics for one partition.
fn materialize_shuffle(
    plan: &LogicalPlan,
    shuffle: VertexId,
    incoming: Vec<Tagged>,
    work: &mut Work,
    pool: &ComputePool,
) -> Vec<Record> {
    let op = plan.vertex(shuffle).op().clone();
    // Grouping/joining/sorting costs roughly two passes per record.
    work.record_ops += 2 * incoming.len() as u64;
    match op {
        Operator::Group { key } => {
            let records: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            group_records_owned(records, key)
        }
        Operator::Join {
            left_key,
            right_key,
        } => {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for (tag, r) in incoming {
                if tag == 0 {
                    left.push(r);
                } else {
                    right.push(r);
                }
            }
            join_records(&left, left_key, &right, right_key)
        }
        Operator::Distinct => {
            let mut records: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            // Sorts the whole record, so ties are byte-identical and
            // instability (and chunked parallel merging) cannot show.
            pool.par_sort_unstable(&mut records);
            records.dedup();
            records
        }
        Operator::Order { key, order } => {
            let records: Vec<Record> = incoming.into_iter().map(|(_, r)| r).collect();
            order_records_owned(records, key, order)
        }
        other => {
            debug_assert!(false, "non-blocking shuffle {}", other.name());
            incoming.into_iter().map(|(_, r)| r).collect()
        }
    }
}

/// Digests a record stream: each record is canonically encoded (with its
/// length-prefix frame) into one reused buffer and fed to the hasher as a
/// single contiguous slice — no per-record allocation, and whole blocks
/// take the SHA-256 multi-block fast path.
fn digest_stream<'a>(
    records: impl Iterator<Item = &'a Record>,
    granularity: usize,
    work: &mut Work,
    pool: &ComputePool,
) -> ChunkedSummary {
    let mut cd = ChunkedDigest::new(granularity);
    let mut buf = Vec::new();
    let mut count = 0u64;
    let mut payload_bytes = 0u64;
    for r in records {
        ChunkedDigest::begin_frame(&mut buf);
        r.write_canonical(&mut buf);
        ChunkedDigest::seal_frame(&mut buf);
        cd.append_framed(&buf);
        payload_bytes += (buf.len() - 8) as u64;
        count += 1;
    }
    work.digest_bytes += payload_bytes;
    // Intercepting each tuple costs about one operator pass (the paper's
    // Penny agents sit between script stages), on top of the hash bytes.
    work.record_ops += count;
    data_plane::count_bytes_encoded(payload_bytes);
    data_plane::count_digest_bytes(payload_bytes + 8 * count);
    finish_chunked(cd, pool)
}

/// Finalizes a chunked digest, fanning the Merkle levels over the
/// compute pool when there are enough parent hashes to amortize the
/// dispatch. Every partition of a level concatenates back to exactly
/// [`parent_level`], so the summary is byte-identical for every pool
/// size, including the inline pool.
fn finish_chunked(cd: ChunkedDigest, pool: &ComputePool) -> ChunkedSummary {
    /// Parents hashed per pool payload.
    const PAR_MERKLE_CHUNK: usize = 512;
    if pool.is_inline() {
        return cd.finish();
    }
    let handle = pool.worker_handle();
    cd.finish_with(move |level| {
        let parents = parent_count(level.len());
        if parents < 2 * PAR_MERKLE_CHUNK {
            return parent_level(level);
        }
        let shared: Arc<Vec<Digest>> = Arc::new(level.to_vec());
        let tasks = parents.div_ceil(PAR_MERKLE_CHUNK);
        handle
            .par_map(tasks, move |i| {
                let first = i * PAR_MERKLE_CHUNK;
                let last = (first + PAR_MERKLE_CHUNK).min(parents);
                parent_range(&shared, first, last)
            })
            .concat()
    })
}

fn byte_size(records: &[Record]) -> u64 {
    records.iter().map(Record::byte_size).sum()
}

/// Commitment digest over a map task's partitioned output: every
/// `(partition, tag, record)` triple framed canonically into one chunked
/// stream. Computed once when the engine captures a sampled task and
/// again by the trusted spot-checker after an honest re-run; any
/// divergence between the two localizes via the summary's Merkle tree.
/// Finished inline (never pool-fanned) so capture and re-check hash the
/// byte-identical stream regardless of which thread runs them.
pub(crate) fn digest_map_outputs(partitions: &[Vec<Tagged>], granularity: usize) -> ChunkedSummary {
    let mut cd = ChunkedDigest::new(granularity);
    let mut buf = Vec::new();
    for (p, part) in partitions.iter().enumerate() {
        for (tag, r) in part {
            ChunkedDigest::begin_frame(&mut buf);
            buf.extend_from_slice(&(p as u64).to_be_bytes());
            buf.extend_from_slice(&(*tag as u64).to_be_bytes());
            r.write_canonical(&mut buf);
            ChunkedDigest::seal_frame(&mut buf);
            cd.append_framed(&buf);
        }
    }
    cd.finish()
}

/// Commitment digest over a reduce/collector task's output records; the
/// reduce-side mirror of [`digest_map_outputs`].
pub(crate) fn digest_reduce_outputs(records: &[Record], granularity: usize) -> ChunkedSummary {
    let mut cd = ChunkedDigest::new(granularity);
    let mut buf = Vec::new();
    for r in records {
        ChunkedDigest::begin_frame(&mut buf);
        r.write_canonical(&mut buf);
        ChunkedDigest::seal_frame(&mut buf);
        cd.append_framed(&buf);
    }
    cd.finish()
}

/// FNV-1a, used for deterministic, platform-independent partitioning and
/// split placement.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExecInput;
    use cbft_dataflow::compile::{compile_plan, DataSource, JobOutput};
    use cbft_dataflow::interp::interpret;
    use cbft_dataflow::{Script, Value};
    use std::collections::HashMap;
    use std::sync::Arc;

    /// Builds an ExecJob straight from a single-job script, for testing
    /// the task layer without the engine.
    fn exec_job(src: &str, vps: Vec<VpSite>) -> ExecJob {
        let plan = Arc::new(Script::parse(src).unwrap().into_plan());
        let graph = compile_plan(&plan);
        assert_eq!(graph.len(), 1, "test helper expects single-job scripts");
        let job = &graph.jobs()[0];
        ExecJob {
            plan: plan.clone(),
            inputs: job
                .inputs
                .iter()
                .map(|i| ExecInput {
                    file: match &i.source {
                        DataSource::Hdfs(f) => f.clone(),
                        DataSource::Intermediate(_) => unreachable!(),
                    },
                    pipeline: i.pipeline.clone(),
                    tag: i.tag,
                })
                .collect(),
            shuffle: job.shuffle,
            reduce: job.reduce.clone(),
            output_file: match &job.output {
                JobOutput::Store(f) => f.clone(),
                JobOutput::Intermediate => "tmp".to_owned(),
            },
            reduce_task_count: if job.single_reduce { 1 } else { 2 },
            map_split_records: 1000,
            verification_points: vps,
            digest_granularity: usize::MAX,
            sid: "s".to_owned(),
            replica: 0,
            combiner: None,
            sample: None,
        }
    }

    fn ints(rows: &[&[i64]]) -> Vec<Record> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
            .collect()
    }

    const FOLLOWER: &str = "raw = LOAD 'twitter' AS (user, follower);
         clean = FILTER raw BY follower IS NOT NULL;
         grp = GROUP clean BY user;
         cnt = FOREACH grp GENERATE group, COUNT(clean) AS n;
         STORE cnt INTO 'counts';";

    #[test]
    fn map_task_filters_and_partitions() {
        let job = exec_job(FOLLOWER, vec![]);
        let mut records = ints(&[&[1, 10], &[2, 20], &[1, 30]]);
        records.push(Record::new(vec![Value::Int(9), Value::Null]));
        let out = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let total: usize = out.partitions.iter().map(Vec::len).sum();
        assert_eq!(total, 3, "null follower filtered out");
        assert_eq!(out.partitions.len(), 2);
        // Same user always lands in the same partition.
        for part in &out.partitions {
            let users: Vec<i64> = part
                .iter()
                .filter_map(|(_, r)| r.get(0).and_then(Value::as_int))
                .collect();
            for u in &users {
                let home = out
                    .partitions
                    .iter()
                    .position(|p| {
                        p.iter()
                            .any(|(_, r)| r.get(0).and_then(Value::as_int) == Some(*u))
                    })
                    .unwrap();
                let _ = home;
            }
            let _ = users;
        }
    }

    #[test]
    fn reduce_task_groups_and_aggregates() {
        let job = exec_job(FOLLOWER, vec![]);
        let incoming: Vec<Tagged> = ints(&[&[1, 10], &[1, 30], &[2, 20]])
            .into_iter()
            .map(|r| (0, r))
            .collect();
        let out = run_reduce_task(&job, incoming, TaskFate::Faithful, &ComputePool::default());
        assert_eq!(out.records, ints(&[&[1, 2], &[2, 1]]));
    }

    #[test]
    fn corrupt_map_task_changes_digest_and_output() {
        let plan_vps = |job: &ExecJob| {
            // Verification point after the map-side filter (input 0, pos 1).
            vec![VpSite {
                vertex: job.inputs[0].pipeline[1],
                site: Site::MapInput {
                    job: cbft_dataflow::compile::JobId(0),
                    input: 0,
                    pos: 1,
                },
            }]
        };
        let mut job = exec_job(FOLLOWER, vec![]);
        job.verification_points = plan_vps(&job);
        let records = ints(&[&[1, 10], &[2, 20]]);
        let honest = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let corrupt = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Corrupt,
            &ComputePool::default(),
        );
        assert_eq!(honest.digests.len(), 1);
        assert_eq!(corrupt.digests.len(), 1);
        assert!(!honest.digests[0]
            .1
            .compare(&corrupt.digests[0].1)
            .is_match());
    }

    #[test]
    fn replicated_tasks_produce_identical_digests() {
        let mut job = exec_job(FOLLOWER, vec![]);
        job.verification_points = vec![VpSite {
            vertex: job.inputs[0].pipeline[1],
            site: Site::MapInput {
                job: cbft_dataflow::compile::JobId(0),
                input: 0,
                pos: 1,
            },
        }];
        let records = ints(&[&[1, 10], &[2, 20], &[3, 30]]);
        let a = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let b = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert!(a.digests[0].1.compare(&b.digests[0].1).is_match());
        assert_eq!(a.partitions, b.partitions, "partitioning is deterministic");
    }

    #[test]
    fn join_reduce_respects_tags() {
        let job = exec_job(
            "a = LOAD 'e' AS (user, follower);
             b = LOAD 'e' AS (user, follower);
             j = JOIN a BY follower, b BY user;
             STORE j INTO 'o';",
            vec![],
        );
        let incoming: Vec<Tagged> = vec![
            (0, Record::new(vec![Value::Int(1), Value::Int(2)])),
            (1, Record::new(vec![Value::Int(2), Value::Int(3)])),
        ];
        let out = run_reduce_task(&job, incoming, TaskFate::Faithful, &ComputePool::default());
        assert_eq!(out.records, ints(&[&[1, 2, 2, 3]]));
    }

    #[test]
    fn order_uses_single_partition() {
        let job = exec_job(
            "a = LOAD 'f' AS (x);
             o = ORDER a BY x DESC;
             STORE o INTO 'out';",
            vec![],
        );
        assert_eq!(job.reduce_task_count, 1);
        let out = run_map_task(
            &job,
            0,
            &ints(&[&[1], &[3], &[2]]),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_eq!(out.partitions.len(), 1);
        let reduced = run_reduce_task(
            &job,
            out.partitions.into_iter().next().unwrap(),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert_eq!(reduced.records, ints(&[&[3], &[2], &[1]]));
    }

    #[test]
    fn shuffle_digest_site_fires_on_reduce() {
        let mut job = exec_job(FOLLOWER, vec![]);
        let shuffle = job.shuffle.unwrap();
        job.verification_points = vec![VpSite {
            vertex: shuffle,
            site: Site::Shuffle {
                job: cbft_dataflow::compile::JobId(0),
            },
        }];
        let incoming: Vec<Tagged> = ints(&[&[1, 10]]).into_iter().map(|r| (0, r)).collect();
        let out = run_reduce_task(&job, incoming, TaskFate::Faithful, &ComputePool::default());
        assert_eq!(out.digests.len(), 1);
        assert_eq!(out.digests[0].0.vertex, shuffle);
    }

    #[test]
    fn work_counters_are_filled() {
        let job = exec_job(FOLLOWER, vec![]);
        let out = run_map_task(
            &job,
            0,
            &ints(&[&[1, 2], &[3, 4]]),
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        assert!(out.work.bytes_in > 0);
        assert!(out.work.bytes_out > 0);
        assert!(out.work.record_ops > 0);
    }

    /// Asserts every observable of two task outputs is byte-identical:
    /// partitions, work counters, and digest summaries down to the
    /// combined fold and the Merkle root.
    fn assert_map_identical(a: &MapTaskOutput, b: &MapTaskOutput, ctx: &str) {
        assert_eq!(a.partitions, b.partitions, "{ctx}: partitions");
        assert_eq!(a.work, b.work, "{ctx}: work");
        assert_eq!(a.digests.len(), b.digests.len(), "{ctx}: digest count");
        for ((va, sa), (vb, sb)) in a.digests.iter().zip(&b.digests) {
            assert_eq!(va, vb, "{ctx}: vp order");
            assert_eq!(sa, sb, "{ctx}: summary");
            assert_eq!(sa.combined(), sb.combined(), "{ctx}: combined");
            assert_eq!(sa.merkle_root(), sb.merkle_root(), "{ctx}: root");
        }
    }

    /// Runs a single-job script through the row task runners: every input
    /// cut into `split`-record map tasks, map partitions gathered per
    /// reduce task in split order, reduce outputs concatenated.
    fn run_job(job: &ExecJob, inputs: &HashMap<String, Vec<Record>>, split: usize) -> Vec<Record> {
        let pool = ComputePool::default();
        let mut parts: Vec<Vec<Tagged>> = Vec::new();
        for (i, input) in job.inputs.iter().enumerate() {
            for chunk in inputs[&input.file].chunks(split) {
                let out = run_map_task(job, i, chunk, TaskFate::Faithful, &pool);
                parts.resize_with(parts.len().max(out.partitions.len()), Vec::new);
                for (p, part) in out.partitions.into_iter().enumerate() {
                    parts[p].extend(part);
                }
            }
        }
        parts
            .into_iter()
            .flat_map(|part| run_reduce_task(job, part, TaskFate::Faithful, &pool).records)
            .collect()
    }

    /// Asserts the row task runners publish exactly what the interpreter
    /// computes for `src` — in order when `ordered`, else as a multiset
    /// (partitioning reorders unsorted output) — for several split sizes.
    fn assert_matches_interp(src: &str, inputs: &[(&str, Vec<Record>)], ordered: bool) {
        let job = exec_job(src, vec![]);
        let inputs: HashMap<String, Vec<Record>> = inputs
            .iter()
            .map(|(name, recs)| ((*name).to_owned(), recs.clone()))
            .collect();
        let oracle = interpret(&job.plan, &inputs).unwrap();
        let mut want = oracle.output(&job.output_file).unwrap().to_vec();
        assert!(!want.is_empty(), "the oracle output exercises the job");
        if !ordered {
            want.sort();
        }
        for split in [1usize, 7, 1000] {
            let mut got = run_job(&job, &inputs, split);
            if !ordered {
                got.sort();
            }
            assert_eq!(got, want, "split {split}");
        }
    }

    #[test]
    fn group_task_runners_match_the_interpreter() {
        let records: Vec<Record> = (0..53i64)
            .map(|i| {
                let f = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(i * 11 % 17)
                };
                Record::new(vec![Value::Int(i % 5), f])
            })
            .collect();
        assert_matches_interp(FOLLOWER, &[("twitter", records)], false);
    }

    #[test]
    fn group_task_digests_match_the_interpreter_streams() {
        // Map, shuffle and reduce verification points each digest exactly
        // the stream the interpreter computes for their vertex.
        let mut job = exec_job(FOLLOWER, vec![]);
        let filter = job.inputs[0].pipeline[1];
        let shuffle = job.shuffle.unwrap();
        let project = job.reduce[0];
        let id = cbft_dataflow::compile::JobId(0);
        job.verification_points = vec![
            VpSite {
                vertex: filter,
                site: Site::MapInput {
                    job: id,
                    input: 0,
                    pos: 1,
                },
            },
            VpSite {
                vertex: shuffle,
                site: Site::Shuffle { job: id },
            },
            VpSite {
                vertex: project,
                site: Site::Reduce { job: id, pos: 0 },
            },
        ];
        job.digest_granularity = 3;
        job.reduce_task_count = 1;
        let mut records: Vec<Record> = (0..40i64)
            .map(|i| Record::new(vec![Value::Int(i % 6), Value::Int(i)]))
            .collect();
        records.push(Record::new(vec![Value::Int(9), Value::Null]));
        let inputs = HashMap::from([("twitter".to_owned(), records.clone())]);
        let oracle = interpret(&job.plan, &inputs).unwrap();
        let want = |v| digest_reduce_outputs(oracle.stream(v), 3);

        let pool = ComputePool::default();
        let map = run_map_task(&job, 0, &records, TaskFate::Faithful, &pool);
        assert_eq!(map.digests.len(), 1);
        assert_eq!(map.digests[0].1, want(filter));
        let part = map.partitions.into_iter().next().unwrap();
        let reduce = run_reduce_task(&job, part, TaskFate::Faithful, &pool);
        assert_eq!(reduce.digests.len(), 2);
        assert_eq!(reduce.digests[0].1, want(shuffle));
        assert_eq!(reduce.digests[1].1, want(project));
        assert_eq!(reduce.records, oracle.output("counts").unwrap());
    }

    #[test]
    fn join_task_runners_match_the_interpreter() {
        let records: Vec<Record> = (0..30i64)
            .map(|i| Record::new(vec![Value::Int(i % 4), Value::Int(i % 3)]))
            .collect();
        assert_matches_interp(
            "a = LOAD 'e' AS (user, follower);
             b = LOAD 'e' AS (user, follower);
             j = JOIN a BY follower, b BY user;
             STORE j INTO 'o';",
            &[("e", records)],
            false,
        );
    }

    #[test]
    fn order_task_runners_match_the_interpreter_in_order() {
        let records: Vec<Record> = (0..25i64)
            .map(|i| Record::new(vec![Value::Int(i), Value::Int(i * 13 % 11)]))
            .collect();
        assert_matches_interp(
            "a = LOAD 'f' AS (x, y);
             o = ORDER a BY y DESC;
             STORE o INTO 'out';",
            &[("f", records)],
            true,
        );
    }

    #[test]
    fn distinct_task_runners_match_the_interpreter() {
        let records: Vec<Record> = (0..40i64)
            .map(|i| Record::new(vec![Value::Int(i % 3), Value::str(format!("v{}", i % 4))]))
            .collect();
        assert_matches_interp(
            "a = LOAD 'f' AS (x, y);
             d = DISTINCT a;
             STORE d INTO 'out';",
            &[("f", records)],
            false,
        );
    }

    #[test]
    fn ragged_split_matches_the_interpreter() {
        // Mixed arity within one split, through a map-side filter and
        // through a grouping shuffle.
        let records = vec![
            Record::new(vec![Value::Int(1)]),
            Record::new(vec![Value::Int(2), Value::Int(3)]),
            Record::new(vec![Value::Null]),
            Record::new(vec![Value::Int(1), Value::str("x"), Value::Int(4)]),
            Record::new(vec![Value::Int(2)]),
        ];
        assert_matches_interp(
            "a = LOAD 'f' AS (x);
             o = FILTER a BY x IS NOT NULL;
             STORE o INTO 'out';",
            &[("f", records.clone())],
            false,
        );
        assert_matches_interp(
            "a = LOAD 'f' AS (x);
             g = GROUP a BY x;
             c = FOREACH g GENERATE group, COUNT(a) AS n;
             STORE c INTO 'out';",
            &[("f", records)],
            false,
        );
    }

    #[test]
    fn pool_built_merkle_tree_is_identical_to_inline() {
        // Enough granularity-1 chunks (> 2 × the 512-parent payload
        // threshold) that the threaded pool actually fans levels out.
        let mut job = exec_job(FOLLOWER, vec![]);
        job.verification_points = vec![VpSite {
            vertex: job.inputs[0].pipeline[1],
            site: Site::MapInput {
                job: cbft_dataflow::compile::JobId(0),
                input: 0,
                pos: 1,
            },
        }];
        job.digest_granularity = 1;
        let records: Vec<Record> = (0..2500i64)
            .map(|i| Record::new(vec![Value::Int(i % 9), Value::Int(i)]))
            .collect();
        let inline = run_map_task(
            &job,
            0,
            &records,
            TaskFate::Faithful,
            &ComputePool::default(),
        );
        let threaded = ComputePool::new(2);
        let pooled = run_map_task(&job, 0, &records, TaskFate::Faithful, &threaded);
        assert_map_identical(&pooled, &inline, "pool merkle");
        assert_eq!(inline.digests[0].1.chunks().len(), 2500);
        assert!(inline.digests[0].1.merkle().depth() > 10);
    }

    #[test]
    fn fnv_is_stable() {
        // Regression pin: partitioning must never change across versions,
        // or replica correspondence would silently break.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
