//! Concurrent smoke test for the `fd-server` Session/Catalog layer.
//!
//! The contract under test: N client threads hammering one server with a
//! mix of discover/validate/keys/delta jobs observe **exactly** the results
//! a serial run would produce — byte-identical FD sets (via the protocol's
//! canonical rendering), correct dataset versioning across deltas, result
//! caching that never serves a stale or partial answer, and cancellation
//! that leaves no trace in the result cache.

use eulerfd_suite::algo::{EulerFd, EulerFdConfig};
use eulerfd_suite::core::Budget;
use eulerfd_suite::relation::synth::dataset_spec;
use eulerfd_suite::relation::Relation;
use eulerfd_suite::server::protocol::render_fds;
use eulerfd_suite::server::{
    DiscoverOptions, JobOutcome, Request, RowsSpec, Server, ServerConfig, FINISHED_JOBS_KEPT,
};

fn gen(name: &str, rows: usize) -> Relation {
    dataset_spec(name).unwrap_or_else(|| panic!("unknown dataset {name}")).generate(rows)
}

/// The serial reference: what one unbudgeted in-process run produces.
fn serial_fds(relation: &Relation) -> String {
    let (fds, report) = EulerFd::new().discover_budgeted(relation, &Budget::unlimited());
    assert!(!report.termination.is_partial());
    render_fds(&fds)
}

fn discover(dataset: &str) -> Request {
    Request::Discover { dataset: dataset.into(), options: DiscoverOptions::default() }
}

#[test]
fn concurrent_mixed_jobs_match_serial() {
    let d1 = gen("abalone", 500);
    let d2 = gen("bridges", 108);
    let expected1 = serial_fds(&d1);
    let expected2 = serial_fds(&d2);
    if fd_telemetry::compiled() {
        fd_telemetry::set_enabled(true);
    }

    let server = Server::start(ServerConfig { workers: 4, ..ServerConfig::default() });
    server.register_relation("d1", d1).expect("register d1");
    server.register_relation("d2", d2).expect("register d2");

    const CLIENTS: usize = 6;
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            let (expected1, expected2) = (&expected1, &expected2);
            scope.spawn(move || {
                let session = server.session_with_weight(1 + (client % 3) as u32);
                // First discover of d1: may or may not hit the cache
                // depending on sibling progress, but the FDs are the FDs.
                let first = session.run(discover("d1"));
                match &first.outcome {
                    JobOutcome::Discovered { version, fds, termination, .. } => {
                        assert_eq!(*version, 0);
                        assert!(!termination.is_partial(), "unlimited budget tripped");
                        assert_eq!(&render_fds(fds), expected1, "client {client}: d1 diverged");
                    }
                    other => panic!("client {client}: d1 discover -> {other:?}"),
                }
                // Second identical discover: this session already completed
                // one, so the cache holds the converged result — guaranteed
                // hit (no deltas run in this test).
                let again = session.run(discover("d1"));
                match &again.outcome {
                    JobOutcome::Discovered { fds, from_cache, .. } => {
                        assert!(*from_cache, "client {client}: repeat discover missed the cache");
                        assert_eq!(&render_fds(fds), expected1);
                    }
                    other => panic!("client {client}: repeat discover -> {other:?}"),
                }
                match &session.run(discover("d2")).outcome {
                    JobOutcome::Discovered { fds, .. } => {
                        assert_eq!(&render_fds(fds), expected2, "client {client}: d2 diverged");
                    }
                    other => panic!("client {client}: d2 discover -> {other:?}"),
                }
                // Validate + keys ride along on both datasets.
                match &session
                    .run(Request::Validate { dataset: "d1".into(), lhs: vec![0], rhs: 1 })
                    .outcome
                {
                    JobOutcome::Validated { version: 0, .. } => {}
                    other => panic!("client {client}: validate -> {other:?}"),
                }
                match &session.run(Request::Keys { dataset: "d2".into() }).outcome {
                    JobOutcome::Keys { keys, fd_count, .. } => {
                        assert!(!keys.is_empty(), "client {client}: no candidate keys");
                        assert!(*fd_count > 0);
                    }
                    other => panic!("client {client}: keys -> {other:?}"),
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.jobs_completed, (CLIENTS * 5) as u64, "every job ran to completion");
    assert_eq!(stats.jobs_cancelled, 0);
    assert!(
        stats.cache_hits >= CLIENTS as u64,
        "each client's repeat discover must hit: {stats:?}"
    );

    // Per-job telemetry export: scoped snapshots when the feature is
    // compiled in (and armed above), None otherwise.
    let session = server.session();
    let result = session.run(discover("d1"));
    if fd_telemetry::compiled() {
        let snapshot = result.telemetry.as_ref().expect("telemetry armed but not exported");
        let json = snapshot.to_json();
        assert!(json.contains("\"schema\": \"fd-telemetry/v1\""), "{json}");
        fd_telemetry::set_enabled(false);
    } else {
        assert!(result.telemetry.is_none());
    }
}

#[test]
fn delta_invalidates_cache_and_rediscovery_matches_serial() {
    let base = gen("abalone", 400);
    let n_attrs = base.n_attrs();
    // The delta: drop the first 25 rows, append copies of three survivors
    // (in-bounds labels, so the encoded path needs no dictionaries).
    let deletes: Vec<u32> = (0..25).collect();
    let inserts: Vec<Vec<u32>> = [40u32, 41, 42]
        .iter()
        .map(|&t| (0..n_attrs).map(|a| base.label(t, a as u16)).collect())
        .collect();
    let mut mutated = base.clone();
    mutated.apply_delta(&inserts, &deletes);
    let expected_v0 = serial_fds(&base);
    let expected_v1 = serial_fds(&mutated);

    let server = Server::start(ServerConfig { workers: 2, ..ServerConfig::default() });
    server.register_relation("d", base).expect("register");
    let session = server.session();

    match &session.run(discover("d")).outcome {
        JobOutcome::Discovered { version: 0, fds, .. } => assert_eq!(render_fds(fds), expected_v0),
        other => panic!("v0 discover -> {other:?}"),
    }
    match &session
        .run(Request::Delta {
            dataset: "d".into(),
            inserts: RowsSpec::Encoded(inserts),
            deletes,
        })
        .outcome
    {
        JobOutcome::DeltaApplied { version, rows, rows_inserted, rows_deleted } => {
            assert_eq!(*version, 1);
            assert_eq!(*rows, 400 - 25 + 3);
            assert_eq!((*rows_inserted, *rows_deleted), (3, 25));
        }
        other => panic!("delta -> {other:?}"),
    }
    let stats = server.stats();
    assert!(stats.cache_invalidations >= 1, "delta must invalidate the v0 entry: {stats:?}");

    // Post-delta discovery: fresh version, cache miss, byte-identical to a
    // cold serial run on the mutated table.
    match &session.run(discover("d")).outcome {
        JobOutcome::Discovered { version, fds, from_cache, .. } => {
            assert_eq!(*version, 1);
            assert!(!from_cache, "stale cache served across a delta");
            assert_eq!(render_fds(fds), expected_v1, "post-delta FD set diverged from serial");
        }
        other => panic!("v1 discover -> {other:?}"),
    }
    // And the repeat is a hit at the new version.
    match &session.run(discover("d")).outcome {
        JobOutcome::Discovered { version: 1, from_cache: true, fds, .. } => {
            assert_eq!(render_fds(fds), expected_v1);
        }
        other => panic!("v1 repeat -> {other:?}"),
    }
    assert_eq!(server.catalog().info("d").expect("info").version, 1);
}

#[test]
fn cancelled_job_never_mutates_the_result_cache() {
    // One worker: job A occupies it while B sits pending, so the cancel
    // lands either before B dispatches (withdrawn) or mid-run (the budget
    // token trips at the next poll) — both must leave the cache untouched.
    let slow = gen("letter", 1500);
    let b_options = DiscoverOptions { th_ncover: Some(0.5), th_pcover: None };
    let b_config = EulerFdConfig { th_ncover: 0.5, ..EulerFdConfig::default() };
    let (b_fds, _) = EulerFd::with_config(b_config).discover_budgeted(&slow, &Budget::unlimited());
    let expected_b = render_fds(&b_fds);

    let server = Server::start(ServerConfig { workers: 1, ..ServerConfig::default() });
    server.register_relation("slow", slow).expect("register");
    let session = server.session();

    let a = session.submit(discover("slow"));
    let b = session.submit(Request::Discover { dataset: "slow".into(), options: b_options });
    assert!(session.cancel(b), "pending job must be cancellable");

    match &session.wait(a).outcome {
        JobOutcome::Discovered { termination, .. } => assert!(!termination.is_partial()),
        other => panic!("job A -> {other:?}"),
    }
    match &session.wait(b).outcome {
        JobOutcome::Cancelled { .. } => {}
        other => panic!("cancelled job B -> {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.jobs_cancelled, 1, "{stats:?}");
    assert_eq!(stats.jobs_completed, 1, "{stats:?}");
    assert_eq!(server.result_cache_len(), 1, "only A's converged result may be cached");

    // Re-running B's exact request must miss the cache (a cancelled job
    // left nothing behind) and then produce the full serial answer.
    match &session
        .run(Request::Discover { dataset: "slow".into(), options: b_options })
        .outcome
    {
        JobOutcome::Discovered { from_cache, fds, termination, .. } => {
            assert!(!from_cache, "cancelled job B populated the result cache");
            assert!(!termination.is_partial());
            assert_eq!(render_fds(fds), expected_b);
        }
        other => panic!("B rerun -> {other:?}"),
    }
    assert_eq!(server.result_cache_len(), 2);
}

#[test]
fn unknown_dataset_fails_cleanly_and_server_survives() {
    let server = Server::start(ServerConfig::default());
    let session = server.session();
    match &session.run(discover("ghost")).outcome {
        JobOutcome::Failed { error } => assert!(error.contains("unknown dataset"), "{error}"),
        other => panic!("ghost discover -> {other:?}"),
    }
    // The failure counts as completed work and the server keeps serving.
    server.register_relation("tiny", gen("iris", 150)).expect("register");
    match &session.run(discover("tiny")).outcome {
        JobOutcome::Discovered { termination, .. } => assert!(!termination.is_partial()),
        other => panic!("post-failure discover -> {other:?}"),
    }
    assert_eq!(server.stats().jobs_completed, 2);
}

#[test]
fn finished_job_records_are_bounded() {
    let server = Server::start(ServerConfig { workers: 1, ..ServerConfig::default() });
    server.register_relation("tiny", gen("iris", 150)).expect("register");
    let session = server.session();
    let first = session.submit(discover("tiny"));
    assert!(matches!(session.wait(first).outcome, JobOutcome::Discovered { .. }));
    // Cache hits: cheap jobs that each leave a full FD set in their record.
    let later: Vec<_> = (0..FINISHED_JOBS_KEPT).map(|_| session.submit(discover("tiny"))).collect();
    for &job in &later {
        assert!(matches!(session.wait(job).outcome, JobOutcome::Discovered { .. }), "job {job}");
    }
    // The oldest finished record made room for the newest; the other
    // FINISHED_JOBS_KEPT are all still answerable.
    match &session.wait(first).outcome {
        JobOutcome::Failed { error } => assert_eq!(error, &format!("unknown job {first}")),
        other => panic!("evicted job -> {other:?}"),
    }
    for &job in &later {
        assert!(matches!(session.wait(job).outcome, JobOutcome::Discovered { .. }), "job {job}");
    }
    assert_eq!(server.stats().jobs_completed, FINISHED_JOBS_KEPT as u64 + 1);
}

/// Polls until some worker is executing a job, then gives it a moment to
/// take its dataset snapshot.
fn wait_until_running(server: &Server) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while server.stats().worker_busy == 0 {
        assert!(std::time::Instant::now() < deadline, "job never started");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(200));
}

#[test]
fn delta_is_not_blocked_by_a_running_discover() {
    // A wide table: the all-pairs cover built at registration stays cheap
    // at this row count, while discovery over 63 columns runs long enough
    // to still be going when the delta returns.
    let wide = gen("plista", 1000);
    let row: Vec<u32> = (0..wide.n_attrs()).map(|a| wide.label(0, a as u16)).collect();
    let server = Server::start(ServerConfig { workers: 2, ..ServerConfig::default() });
    server.register_relation("wide", wide).expect("register");
    let reader = server.session();
    let writer = server.session();
    let delta = |expected_version: u64| {
        let request = Request::Delta {
            dataset: "wide".into(),
            inserts: RowsSpec::Encoded(vec![row.clone()]),
            deletes: vec![],
        };
        match &writer.run(request).outcome {
            JobOutcome::DeltaApplied { version, .. } => assert_eq!(*version, expected_version),
            other => panic!("delta -> {other:?}"),
        }
    };

    // The delta completes while the discover still runs.
    let job = reader.submit(discover("wide"));
    wait_until_running(&server);
    delta(1);
    assert!(reader.cancel(job), "the delta waited for the running discover");
    assert!(matches!(reader.wait(job).outcome, JobOutcome::Cancelled { .. }));
    assert_eq!(server.result_cache_len(), 0);

    // A discover that converges after a delta superseded its snapshot
    // answers for its own version but is not cached.
    let job = reader.submit(discover("wide"));
    wait_until_running(&server);
    delta(2);
    assert_eq!(server.stats().worker_busy, 1, "the discover finished before the delta");
    match &reader.wait(job).outcome {
        JobOutcome::Discovered { version, termination, from_cache, .. } => {
            assert_eq!(*version, 1, "the discover's snapshot predates the second delta");
            assert!(!termination.is_partial());
            assert!(!from_cache);
        }
        other => panic!("superseded discover -> {other:?}"),
    }
    assert_eq!(server.result_cache_len(), 0, "a superseded version was cached");
    assert_eq!(server.catalog().info("wide").expect("info").version, 2);
}
