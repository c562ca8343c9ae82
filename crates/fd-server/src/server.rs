//! The server: worker pool, budget apportionment, result cache, sessions.
//!
//! Discover, validate and keys copy what they need out under a short
//! dataset lock and run without it; only a delta holds the lock while it
//! works. Where both
//! locks are held, the dataset lock is taken before the result-cache lock.

use crate::catalog::{lock, Catalog, CatalogError, DatasetInfo};
use crate::jobs::{
    DiscoverOptions, JobId, JobOutcome, JobQueue, JobRecord, JobResult, JobState, Request,
    RowsSpec, SessionId, SessionState,
};
use crate::metrics::{MetricsConfig, MetricsPlane, TraceEntry};
use eulerfd::EulerFd;
use fd_core::{candidate_keys, AttrSet, Budget, CancelToken, FdSet, Termination, Watchdog};
use fd_relation::CsvOptions;
use fd_telemetry::TelemetrySnapshot;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Extra slack the per-job watchdog grants past the budget deadline: the
/// budget polls the clock cooperatively, the watchdog only backstops code
/// stuck between polls.
const WATCHDOG_GRACE: Duration = Duration::from_millis(250);

/// Server tuning. Everything is optional; the defaults give an unlimited,
/// single-worker server suitable for tests.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Per-job wall-clock deadline, measured from dispatch.
    pub job_deadline: Option<Duration>,
    /// Tenant-level pair cap, split across a session's outstanding jobs at
    /// dispatch time via [`Budget::share`].
    pub tenant_pair_cap: Option<u64>,
    /// Tenant-level cover-node cap, split like the pair cap.
    pub tenant_cover_cap: Option<usize>,
    /// Kernel threads per job (EulerFD config / DeltaEngine inversions).
    pub job_threads: usize,
    /// Result-cache capacity in entries (FIFO eviction).
    pub result_cache_capacity: usize,
    /// CSV parse options for [`Server::register_csv`].
    pub csv: CsvOptions,
    /// Live metrics plane (sampler thread, trace rings, exposition).
    /// `None` (the default) leaves the plane off; also requires the
    /// `telemetry` feature to take effect.
    pub metrics: Option<MetricsConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 1,
            job_deadline: None,
            tenant_pair_cap: None,
            tenant_cover_cap: None,
            job_threads: 1,
            result_cache_capacity: 64,
            csv: CsvOptions::default(),
            metrics: None,
        }
    }
}

/// Point-in-time server counters (independent of the telemetry feature).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs that ran to a non-cancelled outcome (including failures).
    pub jobs_completed: u64,
    /// Jobs that ended cancelled (before or during execution).
    pub jobs_cancelled: u64,
    /// Discover jobs answered from the result cache.
    pub cache_hits: u64,
    /// Result-cache entries dropped by delta invalidation.
    pub cache_invalidations: u64,
    /// Jobs whose panic was isolated.
    pub jobs_panicked: u64,
    /// Jobs queued but not yet dispatched, across all sessions.
    pub queue_depth: u64,
    /// Workers currently executing a job.
    pub worker_busy: u64,
    /// `(session id, outstanding jobs)` for every session with outstanding
    /// work (pending + running), in session-id order.
    pub outstanding_jobs: Vec<(u64, u64)>,
}

#[derive(Default)]
struct StatCells {
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    cache_hits: AtomicU64,
    cache_invalidations: AtomicU64,
    jobs_panicked: AtomicU64,
    worker_busy: AtomicU64,
}

/// A cached converged discovery, plus the FIFO order for eviction.
#[derive(Default)]
struct ResultCache {
    entries: BTreeMap<(String, u64, String), FdSet>,
    order: VecDeque<(String, u64, String)>,
    capacity: usize,
}

impl ResultCache {
    fn get(&self, key: &(String, u64, String)) -> Option<FdSet> {
        self.entries.get(key).cloned()
    }

    fn insert(&mut self, key: (String, u64, String), fds: FdSet) {
        if self.entries.insert(key.clone(), fds).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity.max(1) {
                if let Some(old) = self.order.pop_front() {
                    self.entries.remove(&old);
                }
            }
        }
    }

    /// Drops every entry of `dataset` (all versions). Returns the count.
    fn invalidate_dataset(&mut self, dataset: &str) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|(d, _, _), _| d != dataset);
        self.order.retain(|(d, _, _)| d != dataset);
        (before - self.entries.len()) as u64
    }
}

struct Shared {
    catalog: Catalog,
    queue: JobQueue,
    cache: Mutex<ResultCache>,
    stats: StatCells,
    config: ServerConfig,
    /// Present only with `ServerConfig::metrics` set and the `telemetry`
    /// feature compiled in.
    metrics: Option<Arc<MetricsPlane>>,
}

/// A per-client handle. Submitting is non-blocking; [`Session::wait`]
/// blocks until the job finishes. Dropping a session does not cancel its
/// in-flight jobs.
#[derive(Clone)]
pub struct Session {
    id: SessionId,
    shared: Arc<Shared>,
}

impl Session {
    /// Enqueues a job and returns its id immediately.
    pub fn submit(&self, request: Request) -> JobId {
        let shared = &self.shared;
        let mut state = shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        let job = state.next_job;
        state.next_job += 1;
        state.jobs.insert(
            job,
            JobRecord {
                session: self.id,
                request,
                token: CancelToken::new(),
                state: JobState::Pending,
            },
        );
        if let Some(session) = state.sessions.get_mut(&self.id) {
            session.pending.push_back(job);
            session.outstanding += 1;
        }
        fd_telemetry::counter!("server.jobs_submitted", 1);
        shared.queue.work.notify_one();
        job
    }

    /// Blocks until `job` finishes and returns its result. Unknown ids,
    /// jobs lost to a shutdown, and finished jobs whose records were
    /// dropped (the server keeps the last [`FINISHED_JOBS_KEPT`]) return a
    /// `Failed` outcome.
    ///
    /// [`FINISHED_JOBS_KEPT`]: crate::FINISHED_JOBS_KEPT
    pub fn wait(&self, job: JobId) -> Arc<JobResult> {
        let queue = &self.shared.queue;
        let mut state = queue.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match state.jobs.get(&job) {
                None => {
                    return Arc::new(JobResult {
                        job,
                        outcome: JobOutcome::Failed { error: format!("unknown job {job}") },
                        telemetry: None,
                        wall: Duration::ZERO,
                    })
                }
                Some(record) => {
                    if let JobState::Done(result) = &record.state {
                        return Arc::clone(result);
                    }
                    if state.shutdown {
                        return Arc::new(JobResult {
                            job,
                            outcome: JobOutcome::Failed { error: "server shut down".into() },
                            telemetry: None,
                            wall: Duration::ZERO,
                        });
                    }
                }
            }
            state = queue.done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Submits and waits.
    pub fn run(&self, request: Request) -> Arc<JobResult> {
        let job = self.submit(request);
        self.wait(job)
    }

    /// Requests cancellation of a job. True if the job exists and was not
    /// already done. A pending job is withdrawn without executing; a
    /// running job observes the token at its next budget poll.
    pub fn cancel(&self, job: JobId) -> bool {
        let state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        match state.jobs.get(&job) {
            Some(record) if !matches!(record.state, JobState::Done(_)) => {
                record.token.cancel();
                true
            }
            _ => false,
        }
    }

    /// The cancel token of a job (for external watchdogs / tests).
    pub fn cancel_token(&self, job: JobId) -> Option<CancelToken> {
        let state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        state.jobs.get(&job).map(|r| r.token.clone())
    }
}

/// The running server. Dropping it shuts the worker pool down (pending
/// jobs fail with "server shut down").
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the worker pool (and the metrics sampler thread when
    /// [`ServerConfig::metrics`] is set and the `telemetry` feature is
    /// compiled in — starting the plane also arms recording via
    /// [`fd_telemetry::set_enabled`]).
    pub fn start(config: ServerConfig) -> Server {
        let workers = config.workers.max(1);
        let metrics = match (&config.metrics, fd_telemetry::compiled()) {
            (Some(mc), true) => {
                fd_telemetry::set_enabled(true);
                Some(Arc::new(MetricsPlane::new(mc.clone())))
            }
            _ => None,
        };
        let shared = Arc::new(Shared {
            catalog: Catalog::new(),
            queue: JobQueue::default(),
            cache: Mutex::new(ResultCache {
                capacity: config.result_cache_capacity,
                ..Default::default()
            }),
            stats: StatCells::default(),
            config,
            metrics,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fd-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let sampler = shared.metrics.as_ref().map(|plane| {
            let shared = Arc::clone(&shared);
            let plane = Arc::clone(plane);
            std::thread::Builder::new()
                .name("fd-server-sampler".into())
                .spawn(move || {
                    while !plane.sleep_interval() {
                        plane.publish(gather_gauges(&shared));
                    }
                })
                .expect("spawn sampler")
        });
        Server { shared, workers: handles, sampler }
    }

    /// A server with default config (single worker, unlimited budgets).
    pub fn start_default() -> Server {
        Server::start(ServerConfig::default())
    }

    /// Opens a session with weight 1.
    pub fn session(&self) -> Session {
        self.session_with_weight(1)
    }

    /// Opens a session with an explicit scheduling weight (≥ 1): a
    /// weight-`w` session receives `w` dispatch slots per round-robin
    /// round.
    pub fn session_with_weight(&self, weight: u32) -> Session {
        let mut state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        let id = state.next_session;
        state.next_session += 1;
        let weight = weight.max(1);
        state.sessions.insert(
            id,
            SessionState { weight, credit: weight, pending: VecDeque::new(), outstanding: 0 },
        );
        Session { id, shared: Arc::clone(&self.shared) }
    }

    /// Registers an already-encoded relation under `name`.
    pub fn register_relation(
        &self,
        name: &str,
        relation: fd_relation::Relation,
    ) -> Result<DatasetInfo, CatalogError> {
        self.shared.catalog.register_relation(name, relation, self.shared.config.job_threads)
    }

    /// Registers a dataset from a CSV file.
    pub fn register_csv(&self, name: &str, path: &str) -> Result<DatasetInfo, CatalogError> {
        self.shared.catalog.register_csv(
            name,
            path,
            &self.shared.config.csv,
            self.shared.config.job_threads,
        )
    }

    /// The dataset catalog (info/list).
    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// Current counters plus a point-in-time view of the queue: depth,
    /// busy workers, and per-session outstanding jobs.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        let (queue_depth, outstanding_jobs) = {
            let state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
            (state.queue_depth() as u64, state.outstanding_all())
        };
        ServerStats {
            jobs_completed: s.jobs_completed.load(Ordering::Relaxed),
            jobs_cancelled: s.jobs_cancelled.load(Ordering::Relaxed),
            cache_hits: s.cache_hits.load(Ordering::Relaxed),
            cache_invalidations: s.cache_invalidations.load(Ordering::Relaxed),
            jobs_panicked: s.jobs_panicked.load(Ordering::Relaxed),
            queue_depth,
            worker_busy: s.worker_busy.load(Ordering::Relaxed),
            outstanding_jobs,
        }
    }

    /// The live metrics plane, when the server runs one (requires
    /// [`ServerConfig::metrics`] and the `telemetry` feature).
    pub fn metrics_plane(&self) -> Option<&MetricsPlane> {
        self.shared.metrics.as_deref()
    }

    /// Publishes one metrics window immediately (registry delta + current
    /// gauges), bypassing the sampler cadence. Returns `None` when the
    /// plane is off. Tests drive this with a huge sampler interval to get
    /// deterministic windows.
    pub fn metrics_tick(&self) -> Option<Arc<fd_telemetry::Window>> {
        self.shared.metrics.as_ref().map(|p| p.publish(gather_gauges(&self.shared)))
    }

    /// The retained trace of a completed job, if the plane kept one.
    pub fn trace_of(&self, job: JobId) -> Option<TraceEntry> {
        self.shared.metrics.as_ref().and_then(|p| p.trace_of(job))
    }

    /// The slow-job ring, oldest first (empty when the plane is off).
    pub fn slow_jobs(&self) -> Vec<TraceEntry> {
        self.shared.metrics.as_ref().map(|p| p.slow_jobs()).unwrap_or_default()
    }

    /// Entries currently in the result cache.
    pub fn result_cache_len(&self) -> usize {
        self.shared.cache.lock().unwrap_or_else(|e| e.into_inner()).entries.len()
    }

    /// Stops the workers. Pending jobs fail with "server shut down";
    /// running jobs are cancelled and joined.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut state = self.shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
            for record in state.jobs.values() {
                if !matches!(record.state, JobState::Done(_)) {
                    record.token.cancel();
                }
            }
            self.shared.queue.work.notify_all();
            self.shared.queue.done.notify_all();
        }
        if let Some(plane) = &self.shared.metrics {
            plane.stop();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.sampler.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        // Dispatch under the queue lock.
        let (job, request, token, parts) = {
            let mut state = shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
            let job = loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = state.pick_next() {
                    break job;
                }
                state = shared.queue.work.wait(state).unwrap_or_else(|e| e.into_inner());
            };
            let session = state.jobs[&job].session;
            let parts = state.outstanding_of(session);
            let record = state.jobs.get_mut(&job).expect("picked job exists");
            record.state = JobState::Running;
            (job, record.request.clone(), record.token.clone(), parts)
        };

        shared.stats.worker_busy.fetch_add(1, Ordering::Relaxed);
        let result = Arc::new(execute_job(shared, job, &request, &token, parts));
        shared.stats.worker_busy.fetch_sub(1, Ordering::Relaxed);

        // Publish and account under the queue lock.
        let mut state = shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        let cancelled = matches!(result.outcome, JobOutcome::Cancelled { .. });
        if cancelled {
            shared.stats.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            fd_telemetry::counter!("server.jobs_cancelled", 1);
        } else {
            shared.stats.jobs_completed.fetch_add(1, Ordering::Relaxed);
            fd_telemetry::counter!("server.jobs_completed", 1);
        }
        state.finish(job, result);
        shared.queue.done.notify_all();
    }
}

/// Builds the job's budget: tenant caps split across the session's
/// outstanding jobs, the per-job deadline, and the job's own cancel token.
fn job_budget(config: &ServerConfig, parts: usize, token: CancelToken) -> Budget {
    let mut tenant = Budget::unlimited();
    if let Some(cap) = config.tenant_pair_cap {
        tenant = tenant.pair_cap(cap);
    }
    if let Some(cap) = config.tenant_cover_cap {
        tenant = tenant.cover_cap(cap);
    }
    let mut budget = tenant.share(parts).with_token(token);
    if let Some(deadline) = config.job_deadline {
        budget = budget.deadline_in(deadline);
    }
    budget
}

/// Point-in-time gauges attached to every published metrics window. Gauge
/// names are wire format (the exposition prefixes them `fd_`).
fn gather_gauges(shared: &Shared) -> Vec<(String, f64)> {
    let (queue_depth, outstanding) = {
        let state = shared.queue.state.lock().unwrap_or_else(|e| e.into_inner());
        let outstanding: u64 = state.outstanding_all().iter().map(|&(_, n)| n).sum();
        (state.queue_depth() as f64, outstanding as f64)
    };
    let (datasets, rows) = shared.catalog.totals();
    let cache_entries =
        shared.cache.lock().unwrap_or_else(|e| e.into_inner()).entries.len() as f64;
    vec![
        ("queue_depth".to_owned(), queue_depth),
        ("worker_busy".to_owned(), shared.stats.worker_busy.load(Ordering::Relaxed) as f64),
        ("outstanding_jobs".to_owned(), outstanding),
        ("catalog.datasets".to_owned(), datasets as f64),
        ("catalog.rows".to_owned(), rows as f64),
        ("result_cache.entries".to_owned(), cache_entries),
    ]
}

/// Runs one job with panic isolation, per-job telemetry scoping, wall-time
/// measurement, and (when the metrics plane is live) trace collection.
fn execute_job(
    shared: &Shared,
    job: JobId,
    request: &Request,
    token: &CancelToken,
    parts: usize,
) -> JobResult {
    // A job cancelled while queued is withdrawn without touching anything.
    if let Some(reason) = token.reason() {
        return JobResult {
            job,
            outcome: JobOutcome::Cancelled { reason },
            telemetry: None,
            wall: Duration::ZERO,
        };
    }
    let baseline = fd_telemetry::is_enabled().then(TelemetrySnapshot::capture);
    // The job id doubles as the trace id; collection is thread-local to
    // this worker, so spans from kernel fan-out threads stay out of the
    // tree (they still feed the global histograms).
    let traced =
        shared.metrics.is_some() && fd_telemetry::trace_begin(job, fd_telemetry::DEFAULT_TRACE_CAP);
    let budget = job_budget(&shared.config, parts, token.clone());
    // The watchdog backstops code stuck between budget polls; its Drop
    // disarms it on every exit path, including panic unwinding. Armed
    // before `started` so its thread-spawn cost stays out of the wall time
    // the trace root is compared against.
    let _watchdog = shared
        .config
        .job_deadline
        .map(|d| Watchdog::arm(token.clone(), d + WATCHDOG_GRACE));
    let started = Instant::now();
    let outcome = {
        let _root = fd_telemetry::span!("server.job");
        match catch_unwind(AssertUnwindSafe(|| run_request(shared, request, &budget))) {
            Ok(outcome) => outcome,
            Err(panic) => {
                shared.stats.jobs_panicked.fetch_add(1, Ordering::Relaxed);
                fd_telemetry::counter!("server.jobs_panicked", 1);
                token.cancel_with(Termination::Panicked);
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_owned());
                JobOutcome::Failed { error: format!("job panicked (isolated): {msg}") }
            }
        }
    };
    let wall = started.elapsed();
    fd_telemetry::observe!("server.job_wall_us", wall.as_micros() as u64);
    if traced {
        if let (Some(plane), Some(tree)) = (shared.metrics.as_ref(), fd_telemetry::trace_end()) {
            plane.retain_trace(TraceEntry {
                job,
                dataset: request.dataset().to_owned(),
                wall,
                trace: Arc::new(tree),
            });
        }
    }
    let telemetry =
        baseline.map(|base| TelemetrySnapshot::capture().delta_since(&base));
    JobResult { job, outcome, telemetry, wall }
}

fn run_request(shared: &Shared, request: &Request, budget: &Budget) -> JobOutcome {
    match request {
        Request::Discover { dataset, options } => {
            let _s = fd_telemetry::span!("server.discover");
            run_discover(shared, dataset, *options, budget)
        }
        Request::Validate { dataset, lhs, rhs } => {
            let _s = fd_telemetry::span!("server.validate");
            let handle = match shared.catalog.handle(dataset) {
                Ok(h) => h,
                Err(e) => return JobOutcome::Failed { error: e.to_string() },
            };
            // Snapshot under a short lock; fd_holds runs lock-free.
            let (snapshot, version) = lock(&handle).snapshot();
            if (*rhs as usize) >= snapshot.n_attrs()
                || lhs.iter().any(|&a| a as usize >= snapshot.n_attrs())
            {
                return JobOutcome::Failed {
                    error: format!("attribute out of range (dataset has {})", snapshot.n_attrs()),
                };
            }
            let holds = snapshot.fd_holds(&AttrSet::from_attrs(lhs.iter().copied()), *rhs);
            JobOutcome::Validated { version, holds }
        }
        Request::Keys { dataset } => {
            let _s = fd_telemetry::span!("server.keys");
            let handle = match shared.catalog.handle(dataset) {
                Ok(h) => h,
                Err(e) => return JobOutcome::Failed { error: e.to_string() },
            };
            let (fds, version, n_attrs) = {
                let ds = lock(&handle);
                (ds.fds(), ds.version(), ds.n_attrs())
            };
            let keys = candidate_keys(n_attrs, &fds);
            JobOutcome::Keys { version, keys, fd_count: fds.len() }
        }
        Request::Delta { dataset, inserts, deletes } => {
            let _s = fd_telemetry::span!("server.delta");
            let handle = match shared.catalog.handle(dataset) {
                Ok(h) => h,
                Err(e) => return JobOutcome::Failed { error: e.to_string() },
            };
            let mut ds = lock(&handle);
            let encoded = match inserts {
                RowsSpec::Encoded(rows) => rows.clone(),
                RowsSpec::Raw(rows) => match ds.encode_rows(rows) {
                    Ok(rows) => rows,
                    Err(e) => return JobOutcome::Failed { error: e.to_string() },
                },
            };
            let (report, version) = ds.apply_delta(&encoded, deletes);
            let rows = ds.n_rows();
            // Every cached result of this dataset is now stale: invalidate
            // (version-keyed lookups would already miss, this bounds the
            // cache's memory and makes staleness impossible by construction).
            // Still under the dataset lock, so a discovery finishing now
            // sees the new version and never re-inserts a superseded result.
            let dropped = shared
                .cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .invalidate_dataset(dataset);
            drop(ds);
            if dropped > 0 {
                shared.stats.cache_invalidations.fetch_add(dropped, Ordering::Relaxed);
                fd_telemetry::counter!("server.cache_invalidations", dropped);
            }
            JobOutcome::DeltaApplied {
                version,
                rows,
                rows_inserted: report.rows_inserted,
                rows_deleted: report.rows_deleted,
            }
        }
    }
}

fn run_discover(
    shared: &Shared,
    dataset: &str,
    options: DiscoverOptions,
    budget: &Budget,
) -> JobOutcome {
    let handle = match shared.catalog.handle(dataset) {
        Ok(h) => h,
        Err(e) => return JobOutcome::Failed { error: e.to_string() },
    };
    // Snapshot under a short lock; discovery runs lock-free, like validate,
    // so a delta to the same dataset never waits for it.
    let (snapshot, version) = lock(&handle).snapshot();
    let key = (dataset.to_owned(), version, options.cache_key());
    if let Some(fds) = shared.cache.lock().unwrap_or_else(|e| e.into_inner()).get(&key) {
        shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
        fd_telemetry::counter!("server.cache_hits", 1);
        return JobOutcome::Discovered {
            version,
            fds,
            termination: Termination::Converged,
            from_cache: true,
        };
    }
    let mut config = options.to_config();
    config.threads = shared.config.job_threads;
    let (fds, report) = EulerFd::with_config(config).discover_budgeted(&snapshot, budget);
    // Released before the dataset lock below, so a delta need not copy it.
    drop(snapshot);
    match report.termination {
        // A cancelled job must leave no trace in the result cache.
        Termination::Cancelled | Termination::Panicked => {
            JobOutcome::Cancelled { reason: report.termination }
        }
        termination => {
            if termination == Termination::Converged {
                // Cache only while the snapshot is still current. Dataset
                // lock before cache lock, the order the delta path takes.
                let ds = lock(&handle);
                if ds.version() == version {
                    shared
                        .cache
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .insert(key, fds.clone());
                }
            }
            JobOutcome::Discovered { version, fds, termination, from_cache: false }
        }
    }
}
