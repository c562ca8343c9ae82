//! Job types and the fair queue.
//!
//! The queue is a plain `Mutex<QueueState>` + two condvars (work arrival,
//! job completion). Dispatch is **weighted round-robin across sessions**:
//! every session holds a credit counter refilled to its weight; the
//! dispatcher rotates through sessions in id order, taking one job per
//! visit from each session with pending work and credit left, and refills
//! all credits only when no session with work has credit. A session with
//! weight 3 therefore gets three dispatch slots per round for every one a
//! weight-1 session gets — and an idle session costs nothing.

use fd_core::{AttrId, AttrSet, CancelToken, FdSet, Termination};
use fd_relation::RowId;
use fd_telemetry::TelemetrySnapshot;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Identifier of one submitted job, unique per server.
pub type JobId = u64;

/// Identifier of one session, unique per server.
pub(crate) type SessionId = u64;

/// Discovery parameters a client may override; everything else stays at the
/// EulerFD defaults. Kept small on purpose: these two values are the
/// result-cache key's config component, so they must identify the result.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DiscoverOptions {
    /// `Th_Ncover` override (`None` = paper default).
    pub th_ncover: Option<f64>,
    /// `Th_Pcover` override (`None` = paper default).
    pub th_pcover: Option<f64>,
}

impl DiscoverOptions {
    /// Canonical cache-key component: identical options ⇒ identical key.
    pub(crate) fn cache_key(&self) -> String {
        format!(
            "euler;th_n={};th_p={}",
            self.th_ncover.map_or("default".to_owned(), |v| format!("{v}")),
            self.th_pcover.map_or("default".to_owned(), |v| format!("{v}")),
        )
    }

    /// The full EulerFD config these options resolve to.
    pub(crate) fn to_config(self) -> eulerfd::EulerFdConfig {
        let mut config = eulerfd::EulerFdConfig::default();
        if let Some(v) = self.th_ncover {
            config.th_ncover = v;
        }
        if let Some(v) = self.th_pcover {
            config.th_pcover = v;
        }
        config
    }
}

/// Insert rows of a delta request: already dictionary-encoded, or raw
/// strings to be encoded through the dataset's registration dictionaries
/// (empty string = null).
#[derive(Clone, Debug)]
pub enum RowsSpec {
    /// Labels as stored; labels at or past the current bound denote fresh
    /// values.
    Encoded(Vec<Vec<u32>>),
    /// Raw string fields, one vector per row.
    Raw(Vec<Vec<String>>),
}

impl RowsSpec {
    /// True when no rows are carried.
    pub fn is_empty(&self) -> bool {
        match self {
            RowsSpec::Encoded(rows) => rows.is_empty(),
            RowsSpec::Raw(rows) => rows.is_empty(),
        }
    }
}

/// One unit of work a session submits.
#[derive(Clone, Debug)]
pub enum Request {
    /// Run (budgeted, cached) EulerFD discovery against the dataset's
    /// current snapshot.
    Discover {
        /// Catalog name.
        dataset: String,
        /// Threshold overrides.
        options: DiscoverOptions,
    },
    /// Check whether `lhs → rhs` holds on the current snapshot.
    Validate {
        /// Catalog name.
        dataset: String,
        /// Determinant attributes (may be empty: constancy check).
        lhs: Vec<AttrId>,
        /// Dependent attribute.
        rhs: AttrId,
    },
    /// Candidate keys from the delta-maintained exact cover.
    Keys {
        /// Catalog name.
        dataset: String,
    },
    /// Apply a row delta (inserts and/or deletes) to the dataset.
    Delta {
        /// Catalog name.
        dataset: String,
        /// Rows to append.
        inserts: RowsSpec,
        /// Row ids (current version) to remove.
        deletes: Vec<RowId>,
    },
}

impl Request {
    /// The dataset a request targets.
    pub fn dataset(&self) -> &str {
        match self {
            Request::Discover { dataset, .. }
            | Request::Validate { dataset, .. }
            | Request::Keys { dataset }
            | Request::Delta { dataset, .. } => dataset,
        }
    }
}

/// What a finished job produced.
#[derive(Clone, Debug)]
pub enum JobOutcome {
    /// Discovery finished (possibly partial — see `termination`).
    Discovered {
        /// Dataset version the run observed.
        version: u64,
        /// The discovered FD cover.
        fds: FdSet,
        /// Why the run stopped.
        termination: Termination,
        /// True when served from the result cache.
        from_cache: bool,
    },
    /// Validation finished.
    Validated {
        /// Dataset version the check observed.
        version: u64,
        /// Whether `lhs → rhs` holds.
        holds: bool,
    },
    /// Key enumeration finished.
    Keys {
        /// Dataset version observed.
        version: u64,
        /// Candidate keys, in [`AttrSet`] order.
        keys: Vec<AttrSet>,
        /// Size of the exact cover they were derived from.
        fd_count: usize,
    },
    /// A delta was applied.
    DeltaApplied {
        /// The version after the delta.
        version: u64,
        /// Rows in the dataset after the delta.
        rows: usize,
        /// Rows appended.
        rows_inserted: usize,
        /// Rows removed.
        rows_deleted: usize,
    },
    /// The job was cancelled (before or during execution). The dataset and
    /// the result cache are untouched by a cancelled job.
    Cancelled {
        /// The token's first-wins reason.
        reason: Termination,
    },
    /// The job failed: unknown dataset, encode error, or an isolated panic.
    Failed {
        /// Human-readable cause.
        error: String,
    },
}

/// A finished job: outcome plus the telemetry scoped to its execution
/// window (a [`TelemetrySnapshot::delta_since`] of the shared registry —
/// exact in serial execution, approximate under overlapping jobs).
#[derive(Clone, Debug)]
pub struct JobResult {
    /// The job this result belongs to.
    pub job: JobId,
    /// What happened.
    pub outcome: JobOutcome,
    /// Scoped telemetry (`None` when recording is off).
    pub telemetry: Option<TelemetrySnapshot>,
    /// Measured execution wall time (dispatch to completion; zero for jobs
    /// withdrawn before running or lost to a shutdown). The trace tree's
    /// root span is validated against this.
    pub wall: std::time::Duration,
}

pub(crate) enum JobState {
    Pending,
    Running,
    Done(Arc<JobResult>),
}

pub(crate) struct JobRecord {
    pub(crate) session: SessionId,
    pub(crate) request: Request,
    pub(crate) token: CancelToken,
    pub(crate) state: JobState,
}

pub(crate) struct SessionState {
    pub(crate) weight: u32,
    pub(crate) credit: u32,
    pub(crate) pending: VecDeque<JobId>,
    /// Jobs submitted but not yet Done (pending + running) — the divisor
    /// for tenant budget sharing.
    pub(crate) outstanding: usize,
}

/// Most finished jobs whose results the server keeps for `wait`. Every
/// record holds a full [`JobResult`] (a discover's whole FD set), so an
/// unbounded table grows a long-running server's memory without limit. Past
/// this many, the oldest finished record is dropped, and `wait` on its id
/// answers "unknown job". Pending and running jobs are never dropped.
pub const FINISHED_JOBS_KEPT: usize = 1024;

pub(crate) struct QueueState {
    pub(crate) sessions: BTreeMap<SessionId, SessionState>,
    pub(crate) jobs: BTreeMap<JobId, JobRecord>,
    /// Finished jobs in completion order, oldest first; at most
    /// [`FINISHED_JOBS_KEPT`].
    finished: VecDeque<JobId>,
    pub(crate) next_job: JobId,
    pub(crate) next_session: SessionId,
    /// Session id the last dispatch went to (round-robin rotation point).
    /// Starts at `MAX` so the first round begins at the smallest id.
    pub(crate) last_dispatched: SessionId,
    pub(crate) shutdown: bool,
}

impl Default for QueueState {
    fn default() -> Self {
        QueueState {
            sessions: BTreeMap::new(),
            jobs: BTreeMap::new(),
            finished: VecDeque::new(),
            next_job: 0,
            next_session: 0,
            last_dispatched: SessionId::MAX,
            shutdown: false,
        }
    }
}

impl QueueState {
    /// Weighted round-robin pick: the next pending job, or `None` when no
    /// session has work. Decrements the chosen session's credit; refills
    /// every credit when all sessions with work are out.
    pub(crate) fn pick_next(&mut self) -> Option<JobId> {
        for _refill in 0..2 {
            // Rotate: sessions after the last dispatched one first.
            let ids: Vec<SessionId> = self
                .sessions
                .iter()
                .filter(|(_, s)| !s.pending.is_empty())
                .map(|(&id, _)| id)
                .collect();
            if ids.is_empty() {
                return None;
            }
            let start = ids.partition_point(|&id| id <= self.last_dispatched);
            for &id in ids[start..].iter().chain(&ids[..start]) {
                let session = self.sessions.get_mut(&id).expect("session exists");
                if session.credit == 0 {
                    continue;
                }
                session.credit -= 1;
                let job = session.pending.pop_front().expect("pending non-empty");
                self.last_dispatched = id;
                return Some(job);
            }
            // Every session with work is out of credit: new round.
            for session in self.sessions.values_mut() {
                session.credit = session.weight.max(1);
            }
        }
        None
    }

    /// Records `job`'s result, releases its session's outstanding slot, and
    /// drops the oldest finished records beyond [`FINISHED_JOBS_KEPT`].
    pub(crate) fn finish(&mut self, job: JobId, result: Arc<JobResult>) {
        let Some(record) = self.jobs.get_mut(&job) else {
            return;
        };
        record.state = JobState::Done(result);
        if let Some(s) = self.sessions.get_mut(&record.session) {
            s.outstanding = s.outstanding.saturating_sub(1);
        }
        self.finished.push_back(job);
        while self.finished.len() > FINISHED_JOBS_KEPT {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }

    /// Sessions with outstanding work — the tenant count active budget
    /// shares are measured against.
    pub(crate) fn outstanding_of(&self, session: SessionId) -> usize {
        self.sessions.get(&session).map_or(1, |s| s.outstanding.max(1))
    }

    /// Jobs queued but not yet dispatched, across all sessions.
    pub(crate) fn queue_depth(&self) -> usize {
        self.sessions.values().map(|s| s.pending.len()).sum()
    }

    /// `(session id, outstanding)` for every session with outstanding work
    /// (pending + running), in id order.
    pub(crate) fn outstanding_all(&self) -> Vec<(u64, u64)> {
        self.sessions
            .iter()
            .filter(|(_, s)| s.outstanding > 0)
            .map(|(&id, s)| (id, s.outstanding as u64))
            .collect()
    }
}

/// The shared queue: state + condvars.
#[derive(Default)]
pub(crate) struct JobQueue {
    pub(crate) state: Mutex<QueueState>,
    /// Signalled on job submission and shutdown.
    pub(crate) work: Condvar,
    /// Signalled on job completion.
    pub(crate) done: Condvar,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_order(q: &mut QueueState) -> Vec<SessionId> {
        let jobs: Vec<JobId> = std::iter::from_fn(|| q.pick_next()).collect();
        jobs.into_iter().map(|job| q.jobs[&job].session).collect()
    }

    fn seed_queue(weights: &[u32], jobs_per: usize) -> QueueState {
        let mut q = QueueState::default();
        for (i, &w) in weights.iter().enumerate() {
            let id = i as SessionId;
            let mut pending = VecDeque::new();
            for j in 0..jobs_per {
                let job = (i * jobs_per + j) as JobId;
                q.jobs.insert(
                    job,
                    JobRecord {
                        session: id,
                        request: Request::Keys { dataset: "d".into() },
                        token: CancelToken::new(),
                        state: JobState::Pending,
                    },
                );
                pending.push_back(job);
            }
            q.sessions.insert(
                id,
                SessionState { weight: w, credit: w, pending, outstanding: jobs_per },
            );
        }
        q
    }

    #[test]
    fn round_robin_alternates_between_equal_sessions() {
        let mut q = seed_queue(&[1, 1], 3);
        let order = drain_order(&mut q);
        assert_eq!(order, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn weights_bias_dispatch_proportionally() {
        let mut q = seed_queue(&[3, 1], 4);
        let order = drain_order(&mut q);
        // Per refill round: session 0 three slots, session 1 one slot.
        let first_round = &order[..4];
        assert_eq!(first_round.iter().filter(|&&s| s == 0).count(), 3);
        assert_eq!(first_round.iter().filter(|&&s| s == 1).count(), 1);
        assert_eq!(order.len(), 8, "all jobs dispatched");
    }

    #[test]
    fn idle_sessions_are_skipped() {
        let mut q = seed_queue(&[2, 2], 2);
        q.sessions.get_mut(&1).expect("s1").pending.clear();
        let order = drain_order(&mut q);
        assert_eq!(order, vec![0, 0]);
    }

    #[test]
    fn finished_records_are_bounded_and_unfinished_ones_kept() {
        // Session 0 holds one pending and one running job throughout.
        let mut q = seed_queue(&[1], FINISHED_JOBS_KEPT + 12);
        q.jobs.get_mut(&1).expect("job 1").state = JobState::Running;
        let done = |job| {
            let outcome = JobOutcome::Failed { error: "test".into() };
            Arc::new(JobResult { job, outcome, telemetry: None, wall: std::time::Duration::ZERO })
        };
        for job in 2..FINISHED_JOBS_KEPT as JobId + 12 {
            q.finish(job, done(job));
        }
        assert_eq!(q.finished.len(), FINISHED_JOBS_KEPT);
        // The ten oldest finished records went first.
        assert!((2..12).all(|job| !q.jobs.contains_key(&job)));
        assert!((12..FINISHED_JOBS_KEPT as JobId + 12).all(|job| q.jobs.contains_key(&job)));
        assert!(matches!(q.jobs[&0].state, JobState::Pending));
        assert!(matches!(q.jobs[&1].state, JobState::Running));
        assert_eq!(q.sessions[&0].outstanding, 2);
        // Finishing an already dropped record changes nothing.
        q.finish(2, done(2));
        assert_eq!(q.jobs.len(), FINISHED_JOBS_KEPT + 2);
    }
}
