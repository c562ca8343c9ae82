//! Always-on FD discovery serving: the Session/Catalog layer.
//!
//! The ROADMAP's north star is a service where datasets register **once**
//! and many clients run discovery against them. This crate is that layer,
//! deliberately free of any async runtime — plain threads, mutexes, and
//! condvars, so the whole stack stays driveable from ordinary integration
//! tests:
//!
//! * [`Catalog`] — owns registered datasets: the
//!   [`fd_relation::ColumnDictionaries`] and a [`eulerfd::DeltaEngine`]
//!   that owns the dictionary-encoded [`fd_relation::Relation`] and
//!   maintains the exact FD cover in place across row deltas. Every
//!   applied delta bumps the dataset *version*; jobs run without the
//!   dataset lock against an `Arc<Relation>` snapshot of one version.
//! * [`Session`] — a per-client handle submitting jobs into the queue. Each
//!   session carries a scheduling *weight*; the dispatcher is a weighted
//!   round-robin across sessions, so one chatty tenant cannot starve the
//!   rest.
//! * [`Server`] — worker threads executing jobs under the existing
//!   [`fd_core::Budget`] machinery: per-job deadline plus pair/cover caps
//!   (the tenant-level caps are split across a tenant's outstanding jobs
//!   via [`fd_core::Budget::share`]), cancellation via
//!   [`fd_core::CancelToken`], and per-job panic isolation
//!   (`catch_unwind` + [`fd_core::Watchdog`], the fd-bench RunGuard path).
//!   Converged discovery results enter a cache keyed by
//!   `(dataset, version, config)` only while that version is still
//!   current; applying a delta invalidates every entry of that dataset. Each finished job carries a scoped
//!   [`fd_telemetry::TelemetrySnapshot`] delta.
//! * [`protocol`] — the thin line protocol behind `fdtool serve`: one
//!   request per line over stdin/stdout or a Unix socket, one JSON object
//!   per response line.

mod catalog;
mod jobs;
pub mod metrics;
pub mod protocol;
mod server;

pub use catalog::{Catalog, CatalogError, DatasetInfo};
pub use jobs::{
    DiscoverOptions, JobId, JobOutcome, JobResult, Request, RowsSpec, FINISHED_JOBS_KEPT,
};
pub use metrics::{MetricsConfig, MetricsPlane, TraceEntry};
pub use server::{Server, ServerConfig, ServerStats, Session};
