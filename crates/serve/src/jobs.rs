//! The sweep job queue: bounded admission, single-flight dedup, and a
//! worker pool that drives [`dice_runner::Runner`].
//!
//! Invariants the HTTP layer builds on:
//!
//! * **Single-flight** — a job's id *is* its [`sweep_key`]; a submission
//!   whose key matches a live (queued/running/done) job attaches to that
//!   job instead of enqueueing a second copy, so N identical concurrent
//!   `POST`s execute exactly one sweep and all read the same bytes.
//! * **Bounded admission** — at most `capacity` jobs may be queued or
//!   running; beyond that [`JobQueue::submit`] answers
//!   [`Submission::Overloaded`] (HTTP 429) immediately. The backlog can
//!   never grow without bound.
//! * **Graceful drain** — [`JobQueue::drain`] cancels jobs that have not
//!   started, lets running sweeps finish (every completed cell is already
//!   persisted by the runner's [`DiskCache`](dice_runner::DiskCache)),
//!   and [`JobQueue::join`] waits for the workers to exit.
//!   [`JobQueue::force_cancel`] additionally flips the cooperative
//!   [`RunnerConfig::cancel`] flag so in-flight sweeps stop claiming
//!   cells.
//! * **Event waits** — every event push and state change (and
//!   [`JobQueue::drain`]) notifies one `Condvar` paired with the job-table
//!   mutex, so [`JobQueue::wait_events`] (the SSE stream's wait) blocks
//!   until its job changes instead of polling.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dice_obs::{merge_chrome, Json, MetricRegistry, TraceCtx};
use dice_runner::{Cell, CellProgress, ProgressSink, Runner, RunnerConfig};

use crate::spec::{render_runs, sweep_key, SweepSpec};
use crate::sse::{wait_events, EventsSince};

/// Where one job stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is running the sweep.
    Running,
    /// Finished; the canonical report body is available.
    Done,
    /// The runner could not start (e.g. cache directory I/O failure).
    Failed,
    /// Cancelled by drain before a worker picked it up.
    Cancelled,
}

impl JobState {
    /// The wire spelling used in status documents.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Whether the job has finished for good (done, failed or
    /// cancelled): its event log is complete.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One tracked sweep job.
struct Job {
    spec: SweepSpec,
    cells: usize,
    state: JobState,
    /// `render_runs` output once [`JobState::Done`].
    body: Option<Arc<String>>,
    /// Failure reason once [`JobState::Failed`].
    error: Option<String>,
    /// Runner summary line once finished.
    summary: Option<String>,
    /// Identical submissions that attached to this job after the first.
    coalesced: u64,
    /// Per-cell progress events (rendered JSON objects), appended in
    /// completion order while the sweep runs. SSE readers wait on these
    /// via [`JobQueue::wait_events`].
    events: Vec<Arc<String>>,
    /// Merged Chrome `trace_event` document once [`JobState::Done`].
    trace: Option<Arc<String>>,
}

impl Job {
    fn queued(spec: SweepSpec, cells: usize) -> Job {
        Job {
            spec,
            cells,
            state: JobState::Queued,
            body: None,
            error: None,
            summary: None,
            coalesced: 0,
            events: Vec::new(),
            trace: None,
        }
    }
}

/// Outcome of [`JobQueue::submit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Submission {
    /// The sweep was accepted (or attached to an identical live job).
    Accepted {
        /// Job id (the sweep key).
        id: u64,
        /// Whether this submission coalesced onto an existing job.
        coalesced: bool,
        /// Job state at submission time.
        state: JobState,
    },
    /// The queue is full; retry after the hinted number of seconds.
    Overloaded {
        /// `Retry-After` hint in seconds.
        retry_after_s: u64,
    },
    /// The service is draining and accepts no new work.
    Draining,
}

/// Queue construction knobs.
#[derive(Debug, Clone)]
pub struct JobQueueConfig {
    /// Maximum jobs queued + running before submissions get 429.
    pub capacity: usize,
    /// Sweep worker threads.
    pub workers: usize,
    /// Runner configuration applied to every sweep (`cancel` is replaced
    /// by the queue's own flag).
    pub runner: RunnerConfig,
}

impl Default for JobQueueConfig {
    fn default() -> Self {
        Self {
            capacity: 8,
            workers: 1,
            runner: RunnerConfig::default(),
        }
    }
}

struct Inner {
    jobs: HashMap<u64, Job>,
    queue: VecDeque<u64>,
    /// Jobs currently being executed by a worker.
    active: usize,
}

struct Shared {
    inner: Mutex<Inner>,
    work_ready: Condvar,
    /// Paired with `inner`; notified on every event push, state change
    /// and drain.
    job_changed: Condvar,
    draining: AtomicBool,
    cancel: Arc<AtomicBool>,
    metrics: Arc<Mutex<MetricRegistry>>,
}

impl Shared {
    /// Mutates the job table, then wakes every event waiter.
    fn update<R>(&self, f: impl FnOnce(&mut Inner) -> R) -> R {
        let r = f(&mut self.inner.lock().expect("job queue poisoned"));
        self.job_changed.notify_all();
        r
    }

    fn push_event(&self, id: u64, event: String) {
        self.update(|inner| {
            if let Some(job) = inner.jobs.get_mut(&id) {
                job.events.push(Arc::new(event));
            }
        });
    }
}

/// The job queue. Cheap to share via `Arc`; see the module docs for the
/// invariants.
pub struct JobQueue {
    shared: Arc<Shared>,
    capacity: usize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl JobQueue {
    /// Spawns `config.workers` worker threads and returns the queue.
    #[must_use]
    pub fn new(config: JobQueueConfig, metrics: Arc<Mutex<MetricRegistry>>) -> Arc<JobQueue> {
        let cancel = Arc::new(AtomicBool::new(false));
        let mut runner_cfg = config.runner;
        runner_cfg.cancel = Some(Arc::clone(&cancel));
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                queue: VecDeque::new(),
                active: 0,
            }),
            work_ready: Condvar::new(),
            job_changed: Condvar::new(),
            draining: AtomicBool::new(false),
            cancel,
            metrics,
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let runner_cfg = runner_cfg.clone();
                std::thread::spawn(move || worker_loop(&shared, &runner_cfg))
            })
            .collect();
        Arc::new(JobQueue {
            shared,
            capacity: config.capacity.max(1),
            workers: Mutex::new(workers),
        })
    }

    /// Submits a sweep. See [`Submission`] for the possible outcomes.
    pub fn submit(&self, spec: SweepSpec) -> Submission {
        if self.shared.draining.load(Ordering::SeqCst) {
            return Submission::Draining;
        }
        let cells = spec.to_cells();
        let id = sweep_key(&cells);
        let mut inner = self.shared.inner.lock().expect("job queue poisoned");
        if let Some(job) = inner.jobs.get_mut(&id) {
            // Failed/cancelled jobs may be resubmitted; anything live
            // coalesces.
            if !matches!(job.state, JobState::Failed | JobState::Cancelled) {
                job.coalesced += 1;
                let state = job.state;
                drop(inner);
                self.count("serve.sweeps_coalesced");
                return Submission::Accepted {
                    id,
                    coalesced: true,
                    state,
                };
            }
        }
        if inner.queue.len() + inner.active >= self.capacity {
            drop(inner);
            self.count("serve.sweeps_rejected");
            return Submission::Overloaded { retry_after_s: 1 };
        }
        inner.jobs.insert(id, Job::queued(spec, cells.len()));
        inner.queue.push_back(id);
        drop(inner);
        self.count("serve.sweeps_submitted");
        self.shared.work_ready.notify_one();
        Submission::Accepted {
            id,
            coalesced: false,
            state: JobState::Queued,
        }
    }

    /// The status document for job `id`, or `None` if unknown.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<Json> {
        let inner = self.shared.inner.lock().expect("job queue poisoned");
        let job = inner.jobs.get(&id)?;
        let mut pairs = vec![
            ("id".to_owned(), Json::str(format!("{id:016x}"))),
            ("state".to_owned(), Json::str(job.state.as_str())),
            ("cells".to_owned(), Json::u64(job.cells as u64)),
            ("coalesced".to_owned(), Json::u64(job.coalesced)),
            ("spec".to_owned(), job.spec.to_json()),
        ];
        if let Some(summary) = &job.summary {
            pairs.push(("summary".to_owned(), Json::str(summary)));
        }
        if let Some(error) = &job.error {
            pairs.push(("error".to_owned(), Json::str(error)));
        }
        Some(Json::Obj(pairs))
    }

    /// The canonical report body for job `id`: `Ok(body)` once done,
    /// `Err(state)` while not, `None` if unknown.
    #[must_use]
    pub fn report(&self, id: u64) -> Option<Result<Arc<String>, JobState>> {
        let inner = self.shared.inner.lock().expect("job queue poisoned");
        let job = inner.jobs.get(&id)?;
        Some(match (&job.body, job.state) {
            (Some(body), JobState::Done) => Ok(Arc::clone(body)),
            (_, state) => Err(state),
        })
    }

    /// Progress events for job `id` from index `cursor` on, plus the
    /// job's state at the moment of the read (events and state are read
    /// atomically, so a terminal state means the returned slice completes
    /// the stream). Blocks up to `timeout` while the job has no events
    /// past `cursor` and is not terminal. `None` if the job is unknown.
    #[must_use]
    pub fn wait_events(&self, id: u64, cursor: usize, timeout: Duration) -> Option<EventsSince> {
        let shared = &self.shared;
        wait_events(
            &shared.inner,
            &shared.job_changed,
            cursor,
            timeout,
            |inner| {
                let job = inner.jobs.get(&id)?;
                Some((job.events.as_slice(), job.state))
            },
        )
    }

    /// The merged Chrome trace for job `id`: `Ok(body)` once done,
    /// `Err(state)` while not, `None` if unknown.
    #[must_use]
    pub fn trace(&self, id: u64) -> Option<Result<Arc<String>, JobState>> {
        let inner = self.shared.inner.lock().expect("job queue poisoned");
        let job = inner.jobs.get(&id)?;
        Some(match (&job.trace, job.state) {
            (Some(trace), JobState::Done) => Ok(Arc::clone(trace)),
            (_, state) => Err(state),
        })
    }

    /// Stops accepting work and cancels jobs no worker has started.
    /// Running sweeps finish normally; call [`JobQueue::join`] to wait.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.update(|inner| {
            while let Some(id) = inner.queue.pop_front() {
                if let Some(job) = inner.jobs.get_mut(&id) {
                    job.state = JobState::Cancelled;
                }
            }
        });
        self.shared.work_ready.notify_all();
    }

    /// Flips the cooperative cancel flag shared with every running
    /// sweep: workers finish the cells they already claimed and skip the
    /// rest. Implies nothing about accepting new work — call
    /// [`JobQueue::drain`] first.
    pub fn force_cancel(&self) {
        self.shared.cancel.store(true, Ordering::SeqCst);
    }

    /// Waits for every worker to exit. Only meaningful after
    /// [`JobQueue::drain`].
    pub fn join(&self) {
        let handles = std::mem::take(&mut *self.workers.lock().expect("job queue poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    fn count(&self, name: &str) {
        let mut reg = self.shared.metrics.lock().expect("metrics poisoned");
        let id = reg.counter(name);
        reg.inc(id);
    }
}

fn worker_loop(shared: &Arc<Shared>, runner_cfg: &RunnerConfig) {
    loop {
        let (id, cells) = {
            let mut inner = shared.inner.lock().expect("job queue poisoned");
            loop {
                if let Some(id) = inner.queue.pop_front() {
                    let Some(job) = inner.jobs.get_mut(&id) else {
                        continue;
                    };
                    job.state = JobState::Running;
                    let cells = job.spec.to_cells();
                    inner.active += 1;
                    break (id, cells);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                inner = shared.work_ready.wait(inner).expect("job queue poisoned");
            }
        };
        shared.job_changed.notify_all();

        let finished = run_sweep(shared, runner_cfg, id, cells);

        shared.update(|inner| {
            inner.active -= 1;
            if let Some(job) = inner.jobs.get_mut(&id) {
                match finished {
                    Ok((body, summary, trace)) => {
                        job.state = JobState::Done;
                        job.body = Some(Arc::new(body));
                        job.summary = Some(summary);
                        job.trace = Some(Arc::new(trace));
                    }
                    Err(error) => {
                        job.state = JobState::Failed;
                        job.error = Some(error);
                    }
                }
            }
        });
    }
}

/// Renders one [`CellProgress`] as the JSON object pushed to the job's
/// event log (and streamed over SSE).
fn render_event(p: &CellProgress) -> String {
    Json::Obj(vec![
        ("event".into(), Json::str("cell")),
        ("seq".into(), Json::u64(p.seq as u64)),
        ("total".into(), Json::u64(p.total as u64)),
        ("tag".into(), Json::str(&p.tag)),
        ("workload".into(), Json::str(&p.workload)),
        ("status".into(), Json::str(p.status)),
        ("wall_ms".into(), Json::u64(p.wall_ms)),
    ])
    .render()
}

/// Runs one sweep and renders the canonical body, summary and Chrome
/// trace. Every sweep runs under its own [`TraceCtx`]: the runner opens
/// per-cell spans under the sweep root and the simulator nests its phase
/// spans beneath them, so the exported trace is one causally-linked tree.
/// The canonical report body stays untouched by tracing — spans live only
/// in the separate trace document. The only error path is runner
/// construction (cache directory I/O) — per-cell failures are part of the
/// rendered document, not a job failure.
fn run_sweep(
    shared: &Arc<Shared>,
    runner_cfg: &RunnerConfig,
    job_id: u64,
    cells: Vec<Cell>,
) -> Result<(String, String, String), String> {
    let ctx = TraceCtx::enabled();
    let sweep_name = format!("sweep {job_id:016x}");
    let root = ctx.span(&sweep_name, None).expect("enabled context");
    let mut cfg = runner_cfg.clone();
    cfg.trace = Some(ctx.clone());
    cfg.trace_parent = Some(root.id());
    let sink_shared = Arc::clone(shared);
    cfg.progress = Some(ProgressSink::new(move |p: CellProgress| {
        sink_shared.push_event(job_id, render_event(&p));
    }));
    let runner = Runner::new(cfg).map_err(|e| format!("runner setup: {e}"))?;
    let started = std::time::Instant::now();
    let result = runner.run(cells);
    let body = render_runs(&result).render();
    let summary = result.summary();
    drop(root);
    let trace = merge_chrome(vec![ctx.export_chrome(&sweep_name, 0)]).render();
    let mut reg = shared.metrics.lock().expect("metrics poisoned");
    let id = reg.counter("serve.sweeps_completed");
    reg.inc(id);
    let hist = reg.histogram("serve.sweep_wall_ms");
    reg.observe(hist, started.elapsed().as_millis() as u64);
    result.register(&mut reg);
    Ok((body, summary, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> SweepSpec {
        SweepSpec::parse(&format!(
            r#"{{"orgs":["base"],"workloads":["gcc"],"scale":4096,"warmup":50,"measure":150,"seed":{seed}}}"#
        ))
        .expect("valid spec")
    }

    fn queue(capacity: usize) -> Arc<JobQueue> {
        JobQueue::new(
            JobQueueConfig {
                capacity,
                workers: 1,
                runner: RunnerConfig {
                    jobs: 1,
                    ..RunnerConfig::default()
                },
            },
            Arc::new(Mutex::new(MetricRegistry::new())),
        )
    }

    fn wait_done(q: &JobQueue, id: u64) -> Arc<String> {
        let (_, state) = q
            .wait_events(id, usize::MAX, Duration::from_secs(60))
            .expect("known");
        assert_eq!(state, JobState::Done, "job {id:016x} did not finish");
        q.report(id).expect("known job").expect("done")
    }

    #[test]
    fn runs_a_job_to_done() {
        let q = queue(4);
        let Submission::Accepted { id, coalesced, .. } = q.submit(tiny_spec(1)) else {
            panic!("rejected");
        };
        assert!(!coalesced);
        let body = wait_done(&q, id);
        assert!(body.starts_with("{\"runs\":["));
        let status = q.status(id).expect("known job");
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        q.drain();
        q.join();
    }

    #[test]
    fn finished_job_exposes_events_and_a_valid_trace() {
        let q = queue(4);
        let Submission::Accepted { id, .. } = q.submit(SweepSpec::parse(
            r#"{"orgs":["base","dice36"],"workloads":["gcc"],"scale":4096,"warmup":50,"measure":150,"seed":5}"#,
        )
        .expect("valid spec"))
        else {
            panic!("rejected");
        };
        wait_done(&q, id);

        // One event per cell, seq 1..=total, each a valid JSON object.
        let (events, state) = q.wait_events(id, 0, Duration::ZERO).expect("known job");
        assert_eq!(state, JobState::Done);
        assert_eq!(events.len(), 2);
        for (i, ev) in events.iter().enumerate() {
            let doc = Json::parse(ev).expect("event JSON");
            assert_eq!(doc.get("event").and_then(Json::as_str), Some("cell"));
            assert_eq!(doc.get("seq").and_then(Json::as_u64), Some(i as u64 + 1));
            assert_eq!(doc.get("total").and_then(Json::as_u64), Some(2));
            assert_eq!(doc.get("status").and_then(Json::as_str), Some("simulated"));
        }
        // Cursor past the end yields nothing more.
        let (rest, _) = q
            .wait_events(id, events.len(), Duration::ZERO)
            .expect("known job");
        assert!(rest.is_empty());
        assert!(q.wait_events(0xdead, 0, Duration::ZERO).is_none());

        // The trace is a valid Chrome document forming one tree: a sweep
        // root, a cell span per cell, and phase spans under each cell.
        let trace = q.trace(id).expect("known job").expect("done");
        let doc = Json::parse(&trace).expect("trace JSON");
        dice_obs::validate_chrome_trace(&doc).expect("valid chrome trace");
        let names: Vec<&str> = doc
            .as_arr()
            .expect("array")
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.iter().any(|n| n.starts_with("sweep ")));
        assert_eq!(names.iter().filter(|n| n.starts_with("cell:")).count(), 2);
        assert_eq!(names.iter().filter(|&&n| n == "sim.measure").count(), 2);

        q.drain();
        q.join();
    }

    #[test]
    fn identical_specs_coalesce() {
        let q = queue(4);
        let Submission::Accepted { id: a, .. } = q.submit(tiny_spec(2)) else {
            panic!("rejected");
        };
        let Submission::Accepted {
            id: b, coalesced, ..
        } = q.submit(tiny_spec(2))
        else {
            panic!("rejected");
        };
        assert_eq!(a, b);
        assert!(coalesced);
        wait_done(&q, a);
        let status = q.status(a).expect("known job");
        assert_eq!(status.get("coalesced").and_then(Json::as_u64), Some(1));
        q.drain();
        q.join();
    }

    #[test]
    fn distinct_specs_beyond_capacity_are_rejected() {
        let q = queue(2);
        let mut accepted = 0;
        let mut rejected = 0;
        for seed in 10..20 {
            match q.submit(tiny_spec(seed)) {
                Submission::Accepted { .. } => accepted += 1,
                Submission::Overloaded { retry_after_s } => {
                    assert!(retry_after_s >= 1);
                    rejected += 1;
                }
                Submission::Draining => panic!("not draining"),
            }
        }
        // The worker may have finished some jobs while we submitted, but
        // admission can never exceed capacity + completions; with 10
        // rapid submissions at capacity 2 at least some must bounce.
        assert!(rejected > 0, "queue accepted all {accepted} submissions");
        q.drain();
        q.join();
    }

    #[test]
    fn drain_cancels_queued_jobs_and_rejects_new_ones() {
        let q = queue(8);
        let ids: Vec<u64> = (30..34)
            .map(|seed| match q.submit(tiny_spec(seed)) {
                Submission::Accepted { id, .. } => id,
                other => panic!("rejected: {other:?}"),
            })
            .collect();
        q.drain();
        q.join();
        assert_eq!(q.submit(tiny_spec(99)), Submission::Draining);
        let states: Vec<&str> = ids
            .iter()
            .map(|&id| {
                let s = q.status(id).expect("known job");
                s.get("state")
                    .and_then(Json::as_str)
                    .expect("state")
                    .to_owned()
            })
            .map(|s| if s == "done" { "done" } else { "cancelled" })
            .collect();
        assert!(states.contains(&"cancelled") || states.iter().all(|&s| s == "done"));
        for (&id, state) in ids.iter().zip(&states) {
            if *state == "done" {
                assert!(q.report(id).expect("known").is_ok());
            }
        }
    }

    /// Adds a queued job that no worker will pick up unless it is
    /// `enqueued` (and then only once woken), so it stays queued until
    /// the test changes it or drain cancels it.
    fn park(q: &JobQueue, seed: u64, enqueued: bool) -> u64 {
        let spec = tiny_spec(seed);
        let cells = spec.to_cells();
        let id = sweep_key(&cells);
        let mut inner = q.shared.inner.lock().expect("job queue poisoned");
        inner.jobs.insert(id, Job::queued(spec, cells.len()));
        if enqueued {
            inner.queue.push_back(id);
        }
        id
    }

    /// Blocks a waiter on job `id` with a 30 s timeout, applies `change`
    /// once it is parked, and returns what the waiter saw. Fails unless
    /// the waiter returned promptly.
    fn wake_with(q: &Arc<JobQueue>, id: u64, change: impl FnOnce()) -> EventsSince {
        let waiter = {
            let q = Arc::clone(q);
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                let seen = q.wait_events(id, 0, Duration::from_secs(30));
                (seen, started.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(100));
        change();
        let (seen, waited) = waiter.join().expect("waiter");
        assert!(waited < Duration::from_secs(5), "waiter slept {waited:?}");
        seen.expect("known job")
    }

    #[test]
    fn blocked_waiters_wake_on_event_push_terminal_state_and_drain() {
        let q = queue(4);
        let (pushed, failed) = (park(&q, 40, false), park(&q, 41, false));

        let (events, state) = wake_with(&q, pushed, || q.shared.push_event(pushed, "{}".into()));
        assert_eq!((events.len(), state), (1, JobState::Queued));

        let (events, state) = wake_with(&q, failed, || {
            q.shared.update(|inner| {
                inner.jobs.get_mut(&failed).expect("parked").state = JobState::Failed;
            });
        });
        assert_eq!((events.len(), state), (0, JobState::Failed));

        // By now the worker has long been blocked on the empty queue, so
        // this job stays queued until drain cancels it.
        let drained = park(&q, 42, true);
        let (events, state) = wake_with(&q, drained, || q.drain());
        assert_eq!((events.len(), state), (0, JobState::Cancelled));
        q.join();
    }
}
