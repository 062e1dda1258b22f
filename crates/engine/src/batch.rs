//! The asynchronous batch-job subsystem.
//!
//! A [`BatchSpec`] bundles many [`RankJob`] chunks (possibly over
//! different datasets and algorithms) into one long-running job.
//! Submission returns immediately with a job id; a bounded pool of
//! batch-runner threads executes the chunks **through the same
//! [`Engine::submit`] path as the synchronous endpoints** — registry
//! dispatch, result cache, in-flight coalescing — so a finished job's
//! per-chunk outputs are byte-identical to what `POST /rank` (or
//! `/aggregate`, `/pipeline`) would have returned for the same chunk.
//!
//! Lifecycle:
//!
//! ```text
//!           submit                    runner picks up
//! client ──────────► queued ────────────────► running ──► done
//!                      │                        │   │
//!                      │ cancel                 │   └────► failed (chunk error)
//!                      ▼                        ▼ cancel (between chunks)
//!                  cancelled ◄───────────── cancelled
//! ```
//!
//! Cancellation is cooperative: `DELETE /jobs/{id}` raises a flag the
//! runner checks between chunks, so a cancelled job stops at the next
//! chunk boundary and keeps the results finished so far.
//!
//! The [`JobStore`] tracks every live job, evicts the oldest finished
//! jobs beyond its capacity, and exports queue-health gauges
//! (`jobs_queued`, `jobs_running`, `jobs_completed`, `jobs_failed`,
//! `jobs_cancelled`, `jobs_queue_high_water`) into `GET /stats`.

use crate::job::{RankJob, RankResult};
use crate::stats::JobOrigin;
use crate::trace::{SpanRecorder, Trace, TraceHandle, TraceStr};
use crate::{duration_us, Engine, EngineError};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A batch of chunks submitted as one asynchronous job.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// The chunks, executed in order. Each is a complete, seeded
    /// [`RankJob`], so the batch is reproducible chunk for chunk.
    pub chunks: Vec<RankJob>,
}

impl BatchSpec {
    /// Content digest of the whole batch: FNV-1a folded over the
    /// per-chunk [`RankJob::digest`] values. Two batches with the same
    /// chunks in the same order share a digest, which is what a
    /// consistent-hash router uses as the batch's ring key.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for chunk in &self.chunks {
            for byte in chunk.digest().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }
}

/// Lifecycle state of a batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a batch runner.
    Queued,
    /// A runner is executing chunks.
    Running,
    /// Every chunk finished successfully.
    Done,
    /// A chunk failed; earlier results are kept.
    Failed,
    /// Cancelled before or between chunks; earlier results are kept.
    Cancelled,
}

impl JobState {
    /// Wire name of the state (the `status` field of the job JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True for `done`, `failed` and `cancelled`.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

struct JobInner {
    state: JobState,
    results: Vec<Arc<RankResult>>,
    /// Failing chunk index and error message, for `Failed` jobs.
    error: Option<(usize, String)>,
}

/// One tracked batch job.
pub struct BatchJob {
    id: u64,
    /// Trace ID of the `POST /jobs` request that created this job
    /// (0 for untraced library submissions); every chunk trace points
    /// back at it via [`Trace::parent`].
    parent_trace: u64,
    chunks: Vec<RankJob>,
    cancel: AtomicBool,
    inner: Mutex<JobInner>,
    changed: Condvar,
}

/// A point-in-time copy of a job's observable state.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Job id.
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Chunks in the batch.
    pub chunks_total: usize,
    /// Chunks finished successfully so far.
    pub chunks_done: usize,
    /// Failing chunk index and error message (`Failed` only).
    pub error: Option<(usize, String)>,
    /// Results of the finished chunks, in chunk order.
    pub results: Vec<Arc<RankResult>>,
}

impl BatchJob {
    fn new(id: u64, parent_trace: u64, chunks: Vec<RankJob>) -> Self {
        BatchJob {
            id,
            parent_trace,
            chunks,
            cancel: AtomicBool::new(false),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                results: Vec::new(),
                error: None,
            }),
            changed: Condvar::new(),
        }
    }

    /// Job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Trace ID of the request that submitted this job (0 when the
    /// job was submitted outside a traced request).
    pub fn parent_trace(&self) -> u64 {
        self.parent_trace
    }

    /// Chunks in the batch.
    pub fn chunks_total(&self) -> usize {
        self.chunks.len()
    }

    /// True once cancellation was requested (the runner honors it at
    /// the next chunk boundary).
    pub fn cancel_requested(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Copy the observable state.
    pub fn snapshot(&self) -> JobSnapshot {
        let inner = crate::lock_recover(&self.inner);
        JobSnapshot {
            id: self.id,
            state: inner.state,
            chunks_total: self.chunks.len(),
            chunks_done: inner.results.len(),
            error: inner.error.clone(),
            results: inner.results.clone(),
        }
    }

    /// Block until the job reaches a terminal state and return it.
    pub fn wait(&self) -> JobSnapshot {
        let mut inner = crate::lock_recover(&self.inner);
        while !inner.state.is_terminal() {
            inner = crate::wait_recover(&self.changed, inner);
        }
        JobSnapshot {
            id: self.id,
            state: inner.state,
            chunks_total: self.chunks.len(),
            chunks_done: inner.results.len(),
            error: inner.error.clone(),
            results: inner.results.clone(),
        }
    }

    /// Serialize the current state as the `/jobs/{id}` JSON body.
    /// Per-chunk results (present once the job is terminal) are
    /// rendered with [`RankResult::write_json`], so each element is
    /// byte-identical to the synchronous endpoint's response body for
    /// the same chunk.
    pub fn write_status_json(&self, out: &mut String) {
        let snapshot = self.snapshot();
        let _ = write!(
            out,
            "{{\"id\":{},\"status\":\"{}\",\"chunks_total\":{},\"chunks_done\":{}",
            snapshot.id,
            snapshot.state.as_str(),
            snapshot.chunks_total,
            snapshot.chunks_done
        );
        if let Some((chunk, message)) = &snapshot.error {
            let _ = write!(out, ",\"failed_chunk\":{chunk},\"error\":");
            crate::json::write_string(message, out);
        }
        if snapshot.state.is_terminal() {
            out.push_str(",\"results\":[");
            for (i, result) in snapshot.results.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                result.write_json(out);
            }
            out.push(']');
        }
        out.push('}');
    }
}

/// Bounded registry of live and recently finished batch jobs, plus the
/// queue-health counters surfaced in `GET /stats`.
pub struct JobStore {
    capacity: usize,
    next_id: AtomicU64,
    inner: Mutex<StoreInner>,
    /// Jobs currently waiting for a runner (gauge).
    queued: AtomicU64,
    /// Jobs currently executing (gauge).
    running: AtomicU64,
    /// Jobs that finished with every chunk successful.
    completed: AtomicU64,
    /// Jobs that stopped on a chunk error.
    failed: AtomicU64,
    /// Jobs cancelled before completion.
    cancelled: AtomicU64,
    /// Highest simultaneous queue depth observed.
    queue_high_water: AtomicU64,
}

struct StoreInner {
    map: HashMap<u64, Arc<BatchJob>>,
    /// Insertion order, for finished-job eviction.
    order: VecDeque<u64>,
}

impl JobStore {
    /// A store keeping at most `capacity` jobs (minimum 1). Finished
    /// jobs beyond the bound are evicted oldest-first; when every
    /// stored job is still live the store refuses new submissions.
    pub fn new(capacity: usize) -> Self {
        JobStore {
            capacity: capacity.max(1),
            next_id: AtomicU64::new(1),
            inner: Mutex::new(StoreInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            queued: AtomicU64::new(0),
            running: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            queue_high_water: AtomicU64::new(0),
        }
    }

    /// Register a new queued job, evicting old finished jobs as
    /// needed. Errors with [`EngineError::Overloaded`] when the store
    /// is full of live jobs.
    fn insert(
        &self,
        chunks: Vec<RankJob>,
        parent_trace: u64,
    ) -> Result<Arc<BatchJob>, EngineError> {
        let mut inner = crate::lock_recover(&self.inner);
        while inner.map.len() >= self.capacity {
            // evict the oldest *finished* job
            let Some(pos) = inner.order.iter().position(|id| {
                inner
                    .map
                    .get(id)
                    .is_some_and(|job| crate::lock_recover(&job.inner).state.is_terminal())
            }) else {
                return Err(EngineError::Overloaded);
            };
            // `pos` indexes `order`, so the remove cannot miss; the
            // defensive arm sheds rather than looping on a phantom slot
            let Some(id) = inner.order.remove(pos) else {
                return Err(EngineError::Overloaded);
            };
            inner.map.remove(&id);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(BatchJob::new(id, parent_trace, chunks));
        inner.map.insert(id, Arc::clone(&job));
        inner.order.push_back(id);
        drop(inner);
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
        Ok(job)
    }

    /// Remove a job that could not be handed to the runner pool.
    fn discard(&self, id: u64) {
        let mut inner = crate::lock_recover(&self.inner);
        if inner.map.remove(&id).is_some() {
            inner.order.retain(|&other| other != id);
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Look up a job by id.
    pub fn get(&self, id: u64) -> Option<Arc<BatchJob>> {
        crate::lock_recover(&self.inner).map.get(&id).cloned()
    }

    /// Jobs currently stored (any state).
    pub fn len(&self) -> usize {
        crate::lock_recover(&self.inner).map.len()
    }

    /// True when no jobs are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(queued, running, completed, failed, cancelled, high_water)`
    /// counter snapshot for `GET /stats`.
    pub fn counters(&self) -> (u64, u64, u64, u64, u64, u64) {
        (
            self.queued.load(Ordering::Relaxed),
            self.running.load(Ordering::Relaxed),
            self.completed.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
            self.cancelled.load(Ordering::Relaxed),
            self.queue_high_water.load(Ordering::Relaxed),
        )
    }

    /// Request cancellation: raise the flag and, when the job is still
    /// `Queued`, transition it to `Cancelled` immediately (a runner
    /// that later pops it sees the terminal state and skips it).
    /// Running jobs stop at their next chunk boundary instead.
    fn cancel(&self, job: &BatchJob) {
        job.cancel.store(true, Ordering::Relaxed);
        let mut inner = crate::lock_recover(&job.inner);
        if inner.state == JobState::Queued {
            inner.state = JobState::Cancelled;
            self.queued.fetch_sub(1, Ordering::Relaxed);
            self.cancelled.fetch_add(1, Ordering::Relaxed);
            drop(inner);
            job.changed.notify_all();
        }
    }

    /// Drain helper: cancel every still-`Queued` job immediately
    /// (each flips to `Cancelled` and wakes its waiters), leaving
    /// `Running` jobs untouched so they can finish their remaining
    /// chunks. Returns how many jobs were cancelled.
    pub fn cancel_queued(&self) -> usize {
        let jobs: Vec<Arc<BatchJob>> = crate::lock_recover(&self.inner)
            .map
            .values()
            .cloned()
            .collect();
        let mut cancelled = 0;
        for job in jobs {
            let mut inner = crate::lock_recover(&job.inner);
            if inner.state == JobState::Queued {
                inner.state = JobState::Cancelled;
                drop(inner);
                // the flag makes a runner that already dequeued the job
                // (but has not called `begin` yet) skip it cleanly
                job.cancel.store(true, Ordering::Relaxed);
                self.queued.fetch_sub(1, Ordering::Relaxed);
                self.cancelled.fetch_add(1, Ordering::Relaxed);
                job.changed.notify_all();
                cancelled += 1;
            }
        }
        cancelled
    }

    /// Transition `Queued → Running`; false when the job was cancelled
    /// while queued (already terminal, or the flag landed between the
    /// terminal check and dequeue).
    fn begin(&self, job: &BatchJob) -> bool {
        let mut inner = crate::lock_recover(&job.inner);
        if inner.state.is_terminal() {
            return false; // cancelled while queued: gauges already settled
        }
        if job.cancel_requested() {
            inner.state = JobState::Cancelled;
            self.queued.fetch_sub(1, Ordering::Relaxed);
            self.cancelled.fetch_add(1, Ordering::Relaxed);
            drop(inner);
            job.changed.notify_all();
            return false;
        }
        inner.state = JobState::Running;
        // `running` rises BEFORE `queued` falls: a drain polling both
        // gauges (`Engine::wait_batches_idle`) may transiently see the
        // job counted twice but never see it vanish mid-transition
        self.running.fetch_add(1, Ordering::Relaxed);
        self.queued.fetch_sub(1, Ordering::Relaxed);
        drop(inner);
        job.changed.notify_all();
        true
    }

    /// Move a running job to its terminal state.
    fn finish(&self, job: &BatchJob, state: JobState, error: Option<(usize, String)>) {
        debug_assert!(state.is_terminal());
        let mut inner = crate::lock_recover(&job.inner);
        inner.state = state;
        inner.error = error;
        drop(inner);
        self.running.fetch_sub(1, Ordering::Relaxed);
        match state {
            JobState::Done => self.completed.fetch_add(1, Ordering::Relaxed),
            JobState::Failed => self.failed.fetch_add(1, Ordering::Relaxed),
            _ => self.cancelled.fetch_add(1, Ordering::Relaxed),
        };
        job.changed.notify_all();
    }
}

impl Engine {
    /// Submit a batch job for asynchronous execution. Validates every
    /// chunk's algorithm up front, registers the job as `queued` and
    /// hands it to the batch-runner pool. Returns the tracked job (its
    /// id is what HTTP clients poll).
    pub fn submit_batch(self: &Arc<Self>, spec: BatchSpec) -> Result<Arc<BatchJob>, EngineError> {
        self.submit_batch_traced(spec, 0)
    }

    /// [`Engine::submit_batch`] with trace lineage: `parent_trace` is
    /// the trace ID of the submitting request, recorded on the job so
    /// every chunk trace in `GET /debug/traces` carries a `parent`
    /// pointing back at the `POST /jobs` request that created it.
    pub fn submit_batch_traced(
        self: &Arc<Self>,
        spec: BatchSpec,
        parent_trace: u64,
    ) -> Result<Arc<BatchJob>, EngineError> {
        if self.is_draining() {
            // draining: running batches finish, but no new ones start
            return Err(EngineError::ShuttingDown);
        }
        if spec.chunks.is_empty() {
            return Err(EngineError::InvalidJob(
                "a batch needs at least one chunk".to_string(),
            ));
        }
        for chunk in &spec.chunks {
            if self.registry().get(&chunk.algorithm).is_none() {
                return Err(EngineError::UnknownAlgorithm(chunk.algorithm.clone()));
            }
            crate::registry::check_group_ids(chunk.input.groups(), chunk.input.len())?;
        }
        let job = self.job_store().insert(spec.chunks, parent_trace)?;
        let engine = Arc::clone(self);
        let runner_job = Arc::clone(&job);
        let submitted = self
            .batch_pool()
            .try_submit(Box::new(move |_| run_batch(&engine, &runner_job)));
        if let Err(rejection) = submitted {
            self.job_store().discard(job.id());
            return Err(match rejection {
                crate::pool::SubmitError::QueueFull => EngineError::Overloaded,
                crate::pool::SubmitError::ShuttingDown => EngineError::ShuttingDown,
            });
        }
        Ok(job)
    }

    /// Look up a batch job by id.
    pub fn batch_job(&self, id: u64) -> Option<Arc<BatchJob>> {
        self.job_store().get(id)
    }

    /// Request cooperative cancellation of a batch job. Queued jobs
    /// cancel immediately; running jobs stop at the next chunk
    /// boundary. Finished jobs are unaffected. Returns the job, or
    /// `None` for unknown ids.
    pub fn cancel_batch_job(&self, id: u64) -> Option<Arc<BatchJob>> {
        let job = self.job_store().get(id)?;
        self.job_store().cancel(&job);
        Some(job)
    }
}

/// Execute a batch on a runner thread: every chunk goes through
/// [`Engine::submit`] (cache, coalescing, registry), with a retry loop
/// when the sync queue is momentarily full — batch work waits politely
/// instead of being shed.
fn run_batch(engine: &Arc<Engine>, job: &Arc<BatchJob>) {
    let store = engine.job_store();
    if !store.begin(job) {
        return; // cancelled while queued
    }
    let flight = engine.flight_recorder();
    for (index, chunk) in job.chunks.iter().enumerate() {
        // each chunk is its own trace, parented to the submitting
        // request's trace; spans come back through the shared recorder
        let handle = TraceHandle {
            id: flight.next_id(),
            spans: Arc::new(SpanRecorder::default()),
        };
        let chunk_started = Instant::now();
        let outcome = loop {
            if job.cancel_requested() {
                break None;
            }
            match engine.submit_traced(chunk.clone(), JobOrigin::Batch, Some(&handle)) {
                Err(EngineError::Overloaded) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                other => break Some(other),
            }
        };
        if let Some(result) = &outcome {
            let spans = &handle.spans;
            flight.record(&Trace {
                id: handle.id,
                parent: job.parent_trace,
                job: job.id,
                chunk: index as u32,
                status: if result.is_ok() { 200 } else { 500 },
                cache_hit: spans.cache_hit.load(Ordering::Relaxed),
                route: "jobs_chunk",
                algorithm: TraceStr::new(&chunk.algorithm),
                cache_us: spans.cache_us.load(Ordering::Relaxed),
                queue_us: spans.queue_us.load(Ordering::Relaxed),
                run_us: spans.run_us.load(Ordering::Relaxed),
                total_us: duration_us(chunk_started.elapsed()),
                end_us: flight.now_us(),
                ..Trace::default()
            });
        }
        match outcome {
            None => {
                store.finish(job, JobState::Cancelled, None);
                return;
            }
            Some(Ok(result)) => {
                let mut inner = crate::lock_recover(&job.inner);
                inner.results.push(result);
                drop(inner);
                job.changed.notify_all();
            }
            Some(Err(e)) => {
                store.finish(job, JobState::Failed, Some((index, e.to_string())));
                return;
            }
        }
    }
    store.finish(job, JobState::Done, None);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobInput, JobParams};
    use crate::EngineConfig;

    fn chunk(seed: u64) -> RankJob {
        RankJob {
            algorithm: "weakly-fair".to_string(),
            input: JobInput::Scores {
                scores: vec![0.9, 0.7, 0.4, 0.2],
                groups: vec![0, 0, 1, 1],
            },
            params: JobParams {
                seed,
                ..JobParams::default()
            },
        }
    }

    fn engine() -> Arc<Engine> {
        Engine::new(EngineConfig {
            workers: 2,
            queue_capacity: 32,
            cache_capacity: 32,
            table_cache_capacity: 8,
            cache_shards: 1,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn batch_runs_to_done_with_chunk_results_matching_sync() {
        let e = engine();
        let spec = BatchSpec {
            chunks: (0..4).map(chunk).collect(),
        };
        let job = e.submit_batch(spec).unwrap();
        let snapshot = job.wait();
        assert_eq!(snapshot.state, JobState::Done);
        assert_eq!(snapshot.chunks_done, 4);
        // every chunk result equals the synchronous submission's
        for (seed, result) in snapshot.results.iter().enumerate() {
            let sync = e.submit(chunk(seed as u64)).unwrap();
            assert_eq!(result, &sync);
        }
        let (queued, running, completed, failed, cancelled, high_water) = e.job_store().counters();
        assert_eq!(
            (queued, running, completed, failed, cancelled),
            (0, 0, 1, 0, 0)
        );
        assert!(high_water >= 1);
    }

    #[test]
    fn empty_and_unknown_batches_rejected_up_front() {
        let e = engine();
        assert!(matches!(
            e.submit_batch(BatchSpec { chunks: vec![] }),
            Err(EngineError::InvalidJob(_))
        ));
        let mut bad = chunk(0);
        bad.algorithm = "psychic".to_string();
        assert!(matches!(
            e.submit_batch(BatchSpec { chunks: vec![bad] }),
            Err(EngineError::UnknownAlgorithm(_))
        ));
        assert!(e.job_store().is_empty());
    }

    #[test]
    fn failing_chunk_fails_the_job_but_keeps_earlier_results() {
        let e = engine();
        let mut failing = chunk(9);
        // three groups break gr-binary → chunk 1 fails
        failing.algorithm = "gr-binary".to_string();
        failing.input = JobInput::Scores {
            scores: vec![1.0, 0.8, 0.6],
            groups: vec![0, 1, 2],
        };
        let job = e
            .submit_batch(BatchSpec {
                chunks: vec![chunk(0), failing, chunk(1)],
            })
            .unwrap();
        let snapshot = job.wait();
        assert_eq!(snapshot.state, JobState::Failed);
        assert_eq!(snapshot.chunks_done, 1);
        let (chunk_index, message) = snapshot.error.expect("failure recorded");
        assert_eq!(chunk_index, 1);
        assert!(message.contains("algorithm failed"), "{message}");
        assert_eq!(e.job_store().counters().3, 1); // failed
    }

    #[test]
    fn cancel_while_queued_is_immediate_and_never_runs() {
        use crate::registry::{Algorithm, AlgorithmKind, Registry};
        use crate::tables::ExecContext;
        use rand::rngs::StdRng;
        use std::sync::mpsc::{channel, Sender};

        // an algorithm that blocks until released, so the single batch
        // runner stays busy and the second job deterministically queues
        struct Gated {
            release: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
            started: Sender<()>,
        }
        impl Algorithm for Gated {
            fn name(&self) -> &str {
                "gated"
            }
            fn kind(&self) -> AlgorithmKind {
                AlgorithmKind::PostProcessor
            }
            fn run(
                &self,
                job: &RankJob,
                _ctx: &ExecContext,
                _rng: &mut StdRng,
            ) -> Result<crate::job::RankResult, EngineError> {
                let _ = self.started.send(());
                if let Some(gate) = self.release.lock().unwrap().take() {
                    let _ = gate.recv();
                }
                Ok(crate::job::RankResult {
                    algorithm: job.algorithm.clone(),
                    ranking: vec![0],
                    consensus: None,
                    metrics: vec![],
                })
            }
        }

        let (release_tx, release_rx) = channel();
        let (started_tx, started_rx) = channel();
        let mut registry = Registry::standard();
        registry.register(Arc::new(Gated {
            release: Mutex::new(Some(release_rx)),
            started: started_tx,
        }));
        let e = Engine::with_registry(
            EngineConfig {
                job_runners: 1,
                ..EngineConfig::default()
            },
            registry,
        );
        let mut gated_chunk = chunk(0);
        gated_chunk.algorithm = "gated".to_string();
        let blocker = e
            .submit_batch(BatchSpec {
                chunks: vec![gated_chunk],
            })
            .unwrap();
        // the runner is now inside the gated chunk; job 2 must queue
        started_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        let queued = e
            .submit_batch(BatchSpec {
                chunks: (0..50).map(|i| chunk(2000 + i)).collect(),
            })
            .unwrap();
        e.cancel_batch_job(queued.id()).unwrap();
        // cancellation of a queued job is immediate — no waiting on
        // the runner to come around
        let snapshot = queued.snapshot();
        assert_eq!(snapshot.state, JobState::Cancelled);
        assert_eq!(snapshot.chunks_done, 0);
        release_tx.send(()).unwrap();
        assert_eq!(blocker.wait().state, JobState::Done);
        // the runner skips the already-cancelled job without touching
        // its state or the gauges
        assert_eq!(queued.wait().state, JobState::Cancelled);
        let (q, r, completed, failed, cancelled, _) = e.job_store().counters();
        assert_eq!((q, r, completed, failed, cancelled), (0, 0, 1, 0, 1));
    }

    #[test]
    fn drain_finishes_running_batches_and_cancels_queued_ones() {
        use crate::registry::{Algorithm, AlgorithmKind, Registry};
        use crate::tables::ExecContext;
        use rand::rngs::StdRng;
        use std::sync::mpsc::{channel, Sender};

        struct Gated {
            release: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
            started: Sender<()>,
        }
        impl Algorithm for Gated {
            fn name(&self) -> &str {
                "gated"
            }
            fn kind(&self) -> AlgorithmKind {
                AlgorithmKind::PostProcessor
            }
            fn run(
                &self,
                job: &RankJob,
                _ctx: &ExecContext,
                _rng: &mut StdRng,
            ) -> Result<crate::job::RankResult, EngineError> {
                let _ = self.started.send(());
                if let Some(gate) = self.release.lock().unwrap().take() {
                    let _ = gate.recv();
                }
                Ok(crate::job::RankResult {
                    algorithm: job.algorithm.clone(),
                    ranking: vec![0],
                    consensus: None,
                    metrics: vec![],
                })
            }
        }

        let (release_tx, release_rx) = channel();
        let (started_tx, started_rx) = channel();
        let mut registry = Registry::standard();
        registry.register(Arc::new(Gated {
            release: Mutex::new(Some(release_rx)),
            started: started_tx,
        }));
        let e = Engine::with_registry(
            EngineConfig {
                job_runners: 1,
                ..EngineConfig::default()
            },
            registry,
        );
        let mut gated_chunk = chunk(0);
        gated_chunk.algorithm = "gated".to_string();
        // batch A occupies the single runner mid-chunk...
        let running = e
            .submit_batch(BatchSpec {
                chunks: vec![gated_chunk, chunk(1)],
            })
            .unwrap();
        started_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        // ...batch B queues behind it
        let queued = e
            .submit_batch(BatchSpec {
                chunks: vec![chunk(2)],
            })
            .unwrap();

        e.begin_drain();
        // the queued batch fails fast as cancelled, immediately
        assert_eq!(queued.snapshot().state, JobState::Cancelled);
        assert_eq!(queued.snapshot().chunks_done, 0);
        // new batches are rejected while draining
        assert!(matches!(
            e.submit_batch(BatchSpec {
                chunks: vec![chunk(3)]
            }),
            Err(EngineError::ShuttingDown)
        ));
        // the running batch is NOT cut off: it finishes every chunk
        release_tx.send(()).unwrap();
        let done = running.wait();
        assert_eq!(done.state, JobState::Done);
        assert_eq!(done.chunks_done, 2);
        // and the drain tail observes a fully idle job subsystem
        e.wait_batches_idle();
        let (q, r, completed, failed, cancelled, _) = e.job_store().counters();
        assert_eq!((q, r, completed, failed, cancelled), (0, 0, 1, 0, 1));
    }

    #[test]
    fn unknown_id_lookups_are_none() {
        let e = engine();
        assert!(e.batch_job(999).is_none());
        assert!(e.cancel_batch_job(999).is_none());
    }

    #[test]
    fn store_evicts_finished_jobs_beyond_capacity() {
        let store = JobStore::new(2);
        let a = store.insert(vec![chunk(1)], 0).unwrap();
        store.begin(&a);
        store.finish(&a, JobState::Done, None);
        let b = store.insert(vec![chunk(2)], 0).unwrap();
        store.begin(&b);
        store.finish(&b, JobState::Done, None);
        let c = store.insert(vec![chunk(3)], 0).unwrap();
        assert!(store.get(a.id()).is_none(), "oldest finished job evicted");
        assert!(store.get(b.id()).is_some());
        assert!(store.get(c.id()).is_some());
    }

    #[test]
    fn store_full_of_live_jobs_rejects() {
        let store = JobStore::new(1);
        let _live = store.insert(vec![chunk(1)], 0).unwrap();
        assert!(matches!(
            store.insert(vec![chunk(2)], 0),
            Err(EngineError::Overloaded)
        ));
    }

    #[test]
    fn status_json_shapes() {
        let store = JobStore::new(4);
        let job = store.insert(vec![chunk(1), chunk(2)], 0).unwrap();
        let mut out = String::new();
        job.write_status_json(&mut out);
        assert!(out.contains("\"status\":\"queued\""), "{out}");
        assert!(out.contains("\"chunks_total\":2"), "{out}");
        assert!(!out.contains("results"), "queued jobs carry no results");
        store.begin(&job);
        store.finish(&job, JobState::Failed, Some((0, "boom \"quoted\"".into())));
        out.clear();
        job.write_status_json(&mut out);
        assert!(out.contains("\"status\":\"failed\""), "{out}");
        assert!(out.contains("\"failed_chunk\":0"), "{out}");
        assert!(out.contains("\"error\":\"boom \\\"quoted\\\"\""), "{out}");
        assert!(out.contains("\"results\":[]"), "{out}");
    }
}
