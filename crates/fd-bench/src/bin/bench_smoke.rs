//! Smoke benchmark of the discovery pipeline (not CI-blocking).
//!
//! Runs a downsized rows-scaling sweep on a synthetic dataset twice — once
//! with 1 kernel thread and once with N — and writes `BENCH_PR8.json`
//! recording wall-clock, pairs/sec, the per-point speedup, a per-phase
//! breakdown (sample / invert / validate / partition-product), a
//! partition-product microbench pitting the flat CSR engine against the
//! legacy nested-vec representation, a bit-packed agree-set kernel
//! microbench (scalar reference vs. word-wide packed, width 24), a
//! worker-scaling section measuring the sample and invert phases at
//! 1/2/4/8 workers (tiers above `available_parallelism` are skipped) with
//! per-tier steal counts, and (when built with `--features telemetry`) a
//! telemetry section: recording overhead off vs. on, the EulerFD cycle
//! trace, PLI-cache hit economics, and budget trip latencies for
//! deadline-tripped EulerFD and Tane runs — while also asserting that every
//! measured thread count discovered the byte-identical FD set. A `faults`
//! section reports the cost of the fault-injection sites: compiled out
//! (zero by construction) or, with `--features faults`, disarmed vs.
//! armed-with-empty-plan wall time. A `delta` section pits the incremental
//! [`DeltaEngine`] against a cold re-discovery at 0.1% / 1% / 5% row deltas
//! (half inserts drawn from a held-out tail of the same generator run, half
//! evenly spaced deletes), reporting wall-clock for both paths, the
//! incremental/cold ratio, and FD-set byte identity. Invoke via
//! `scripts/bench_smoke.sh` or directly:
//!
//! ```text
//! cargo run --release -p fd-bench --features telemetry --bin bench_smoke -- \
//!     [--dataset lineitem] [--rows 120000] [--threads 4] \
//!     [--repeat 2] [--out BENCH_PR8.json] [--scaling-gate] [--delta-gate]
//! ```
//!
//! `--scaling-gate` runs only the CI gate: packed-kernel speedup tripwire,
//! byte-identical discovery across worker counts, and (on multi-core hosts
//! only) a 2-worker ≥1.2× sampling-throughput floor. Single-core hosts
//! auto-skip the throughput floor so container CI stays green.
//! `--delta-gate` runs only the delta-maintenance gate: the 1% point must
//! re-discover incrementally in ≤ 25% of the cold wall, and every point's
//! incremental FD set must be byte-identical to the cold one.

use eulerfd::{DeltaEngine, EulerFd, EulerFdConfig, EulerFdReport};
use fd_baselines::Tane;
use fd_core::{Budget, FastHashMap, FdSet};
use fd_relation::{
    agree_of_rows, g3_error_cached, packed_agree_of_rows, synth, Partition, PliCache,
    PliCacheStats, ProductScratch, Relation, RowId,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Opts {
    dataset: String,
    rows: usize,
    threads: usize,
    repeat: usize,
    out: String,
    scaling_gate: bool,
    delta_gate: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            dataset: "lineitem".into(),
            rows: 120_000,
            threads: 4,
            repeat: 2,
            out: "BENCH_PR8.json".into(),
            scaling_gate: false,
            delta_gate: false,
        }
    }
}

fn parse_opts() -> Opts {
    let mut opts = Opts::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--dataset" => opts.dataset = value("--dataset"),
            "--rows" => opts.rows = parse_num(&value("--rows"), "--rows"),
            "--threads" => opts.threads = parse_num(&value("--threads"), "--threads"),
            "--repeat" => opts.repeat = parse_num(&value("--repeat"), "--repeat").max(1),
            "--out" => opts.out = value("--out"),
            "--scaling-gate" => opts.scaling_gate = true,
            "--delta-gate" => opts.delta_gate = true,
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    if opts.threads < 2 {
        usage("--threads must be at least 2 (the sweep compares against 1)");
    }
    opts
}

fn parse_num(v: &str, name: &str) -> usize {
    v.parse().unwrap_or_else(|_| usage(&format!("{name} needs a number")))
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: bench_smoke [--dataset <name>] [--rows <n>] [--threads <n>] \
         [--repeat <n>] [--out <path>] [--scaling-gate] [--delta-gate]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// One timed discovery; returns (best wall-clock over `repeat` runs, pairs
/// compared, FDs, report of the best run). Pairs and FDs are identical
/// across repeats (discovery is deterministic), so only the clock is
/// minimized.
fn run_discovery(
    relation: &Relation,
    threads: usize,
    repeat: usize,
) -> (f64, u64, FdSet, EulerFdReport) {
    let algo = EulerFd::with_config(EulerFdConfig::default().with_threads(threads));
    let mut best = f64::INFINITY;
    let mut pairs = 0;
    let mut fds = FdSet::new();
    let mut best_report = EulerFdReport::default();
    for _ in 0..repeat {
        let start = Instant::now();
        let (f, report) = algo.discover_with_report(relation);
        let secs = start.elapsed().as_secs_f64();
        if secs < best {
            best = secs;
            best_report = report.clone();
        }
        pairs = report.sampler.pairs_compared;
        fds = f;
    }
    (best, pairs, fds, best_report)
}

/// Times the comparison kernel itself — the seed's column-major strided
/// `Relation::agree_set` against the packed [`fd_relation::RowMajor`] linear
/// scan — over consecutive-row pairs. This isolates the cache-layout win
/// from thread scaling, so it is meaningful even on a single-core machine.
fn kernel_layout_speedup(relation: &Relation) -> (f64, f64, f64) {
    let n = relation.n_rows() as u64;
    if n < 2 {
        return (0.0, 0.0, 1.0);
    }
    // Scattered pairs, like window sampling inside large clusters (the
    // sampler compares rows far apart, not neighbors): a fixed LCG walk.
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % n) as u32
    };
    let pairs: Vec<(u32, u32)> = (0..2_000_000).map(|_| (next(), next())).collect();
    let rm = relation.row_major();
    // Column-major (seed path).
    let start = Instant::now();
    let mut sink = 0usize;
    for &(t, u) in &pairs {
        sink ^= relation.agree_set(t, u).len();
    }
    let col_secs = start.elapsed().as_secs_f64();
    // Row-major packed scan.
    let start = Instant::now();
    for &(t, u) in &pairs {
        sink ^= rm.agree_set(t, u).len();
    }
    let row_secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let pps_col = pairs.len() as f64 / col_secs;
    let pps_row = pairs.len() as f64 / row_secs;
    (pps_col, pps_row, col_secs / row_secs)
}

/// The pre-CSR stripped-partition representation: one `Vec<RowId>` per
/// cluster, with the hash-probe product the seed shipped. Kept here (and in
/// the proptest oracle) purely as a baseline to measure the flat engine
/// against.
struct NestedPartition {
    clusters: Vec<Vec<RowId>>,
    n_rows: usize,
}

impl NestedPartition {
    fn from_partition(p: &Partition, n_rows: usize) -> NestedPartition {
        NestedPartition { clusters: p.to_nested(), n_rows }
    }

    /// The legacy product, exactly as the seed shipped it: a
    /// `FastHashMap<RowId, u32>` row → cluster-id probe table, a per-probe
    /// `HashMap` bucket split, per-group sorts, and a final sort restoring
    /// the canonical order the CSR engine maintains for free.
    fn product(&self, other: &NestedPartition) -> NestedPartition {
        let mut owner: FastHashMap<RowId, u32> = FastHashMap::default();
        owner.reserve(self.clusters.iter().map(Vec::len).sum());
        for (i, cluster) in self.clusters.iter().enumerate() {
            for &row in cluster {
                owner.insert(row, i as u32);
            }
        }
        let mut out: Vec<Vec<RowId>> = Vec::new();
        for cluster in &other.clusters {
            let mut buckets: FastHashMap<u32, Vec<RowId>> = FastHashMap::default();
            for &row in cluster {
                if let Some(&own) = owner.get(&row) {
                    buckets.entry(own).or_default().push(row);
                }
            }
            for (_, mut group) in buckets {
                if group.len() > 1 {
                    group.sort_unstable();
                    out.push(group);
                }
            }
        }
        out.sort_by_key(|c| c[0]);
        NestedPartition { clusters: out, n_rows: self.n_rows }
    }
}

/// Measures the partition-product engines head to head: every ordered pair
/// of single-column stripped partitions, legacy nested-vec vs flat CSR with
/// a reused scratch. Returns (csr_secs, legacy_secs, speedup, products,
/// identical).
fn partition_product_microbench(relation: &Relation, reps: usize) -> (f64, f64, f64, u64, bool) {
    let singles: Vec<Partition> = (0..relation.n_attrs())
        .map(|a| Partition::of_column(relation, a as u16).stripped())
        .collect();
    let pairs: Vec<(usize, usize)> = (0..singles.len())
        .flat_map(|i| (i + 1..singles.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| singles[i].n_clusters() > 0 && singles[j].n_clusters() > 0)
        .collect();
    if pairs.is_empty() {
        return (0.0, 0.0, 1.0, 0, true);
    }

    // Correctness cross-check before the clocks start: both engines must
    // produce the same clusters in the same canonical order.
    let nested: Vec<NestedPartition> = singles
        .iter()
        .map(|p| NestedPartition::from_partition(p, relation.n_rows()))
        .collect();
    let mut scratch = ProductScratch::default();
    let identical = pairs.iter().all(|&(i, j)| {
        singles[i].product_with(&singles[j], &mut scratch).to_nested()
            == nested[i].product(&nested[j]).clusters
    });

    let start = Instant::now();
    let mut sink = 0usize;
    for _ in 0..reps {
        for &(i, j) in &pairs {
            sink ^= singles[i].product_with(&singles[j], &mut scratch).n_clusters();
        }
    }
    let csr_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for _ in 0..reps {
        for &(i, j) in &pairs {
            sink ^= nested[i].product(&nested[j]).clusters.len();
        }
    }
    let legacy_secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);

    let products = (pairs.len() * reps) as u64;
    (csr_secs, legacy_secs, legacy_secs / csr_secs, products, identical)
}

/// Times `g3` validation of every discovered FD against the full relation,
/// all served by one shared PLI cache (the HyFd/Tane validation path).
fn validate_phase(relation: &Relation, fds: &FdSet) -> (f64, usize, usize, PliCacheStats) {
    let mut cache = PliCache::with_default_budget();
    let start = Instant::now();
    let mut exact = 0usize;
    for fd in fds {
        if g3_error_cached(relation, &fd.lhs, fd.rhs, &mut cache) == 0.0 {
            exact += 1;
        }
    }
    (start.elapsed().as_secs_f64(), fds.len(), exact, cache.stats())
}

/// `(count, sum, max)` of a histogram in a snapshot, or zeros when absent.
fn hist_totals(snap: &fd_telemetry::TelemetrySnapshot, name: &str) -> (u64, u64, u64) {
    snap.histogram(name).map_or((0, 0, 0), |h| (h.count, h.sum, h.max))
}

/// Exercises the budgeted anytime paths under a deadline tight enough to
/// trip on the 120k workload, so the `budget.trip_latency_ns` histogram and
/// per-reason trip counters have data for both EulerFD and Tane. Returns
/// `(termination, trip_count_delta, trip_sum_delta_ns, polls_delta)` per
/// algorithm, measured as snapshot deltas so each run's trips are
/// attributable despite the registry being global.
fn budget_trip_runs(relation: &Relation, threads: usize) -> [(String, u64, u64, u64); 2] {
    let trip_deadline = Duration::from_millis(30);
    let before = fd_telemetry::snapshot();
    let euler = EulerFd::with_config(EulerFdConfig::default().with_threads(threads));
    let (_, report) = euler.discover_budgeted(relation, &Budget::with_deadline(trip_deadline));
    let mid = fd_telemetry::snapshot();
    let (_, tane_term) = Tane::new().discover_budgeted(relation, &Budget::with_deadline(trip_deadline));
    let after = fd_telemetry::snapshot();

    let delta = |a: &fd_telemetry::TelemetrySnapshot, b: &fd_telemetry::TelemetrySnapshot| {
        let (c0, s0, _) = hist_totals(a, "budget.trip_latency_ns");
        let (c1, s1, _) = hist_totals(b, "budget.trip_latency_ns");
        let polls = b.counter("budget.polls").unwrap_or(0) - a.counter("budget.polls").unwrap_or(0);
        (c1 - c0, s1 - s0, polls)
    };
    let (ec, es, ep) = delta(&before, &mid);
    let (tc, ts, tp) = delta(&mid, &after);
    [
        (report.termination.as_str().to_string(), ec, es, ep),
        (tane_term.as_str().to_string(), tc, ts, tp),
    ]
}

/// Renders one `{"name": …}` object of the budget-trips JSON section.
fn trip_json(name: &str, t: &(String, u64, u64, u64)) -> String {
    let (term, count, sum, polls) = (&t.0, t.1, t.2, t.3);
    let mean = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
    format!(
        "      \"{name}\": {{\"termination\": \"{term}\", \"polls\": {polls}, \
         \"trip_latency_count\": {count}, \"trip_latency_mean_ns\": {mean:.0}}}"
    )
}

/// Times the agree-set kernels head to head on a width-24 relation: the
/// scalar per-attribute reference loop against the bit-packed word-wide
/// kernel, both reading the same row-major rows. Width 24 is past the
/// acceptance floor (≥20) yet realistic for the wide end of the paper's
/// evaluation schemas. Returns (scalar pairs/s, packed pairs/s, speedup).
fn packed_kernel_microbench() -> (f64, f64, f64) {
    use synth::{ColumnKind, ColumnSpec, Generator};
    let cols: Vec<ColumnSpec> = (0..24)
        .map(|i| {
            ColumnSpec::new(format!("c{i}"), ColumnKind::Categorical { cardinality: 8, skew: 0.0 })
        })
        .collect();
    let relation = Generator::new("kernel24", cols, 7).generate(4000);
    let rm = relation.row_major();
    let pairs = scattered_pairs(&relation, 2_000_000);
    // Equivalence spot check before the clocks start.
    for &(t, u) in &pairs[..1000] {
        assert_eq!(
            packed_agree_of_rows(rm.row(t), rm.row(u)),
            agree_of_rows(rm.row(t), rm.row(u)),
            "kernel mismatch on pair ({t}, {u})"
        );
    }
    let mut sink = 0usize;
    let start = Instant::now();
    for &(t, u) in &pairs {
        sink ^= agree_of_rows(rm.row(t), rm.row(u)).len();
    }
    let scalar_secs = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for &(t, u) in &pairs {
        sink ^= packed_agree_of_rows(rm.row(t), rm.row(u)).len();
    }
    let packed_secs = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    let pps_scalar = pairs.len() as f64 / scalar_secs;
    let pps_packed = pairs.len() as f64 / packed_secs;
    (pps_scalar, pps_packed, scalar_secs / packed_secs)
}

/// A fixed LCG walk of `count` row pairs, like window sampling inside large
/// clusters (the sampler compares rows far apart, not neighbors).
fn scattered_pairs(relation: &Relation, count: usize) -> Vec<(RowId, RowId)> {
    let n = relation.n_rows().max(1) as u64;
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) % n) as u32
    };
    (0..count).map(|_| (next(), next())).collect()
}

/// A canonical, order-independent rendering of an FD set; byte equality of
/// two renderings is byte equality of the discovered covers.
fn canonical_fds(fds: &FdSet) -> String {
    let mut lines: Vec<String> =
        fds.iter().map(|fd| format!("{:?}->{}", fd.lhs.to_words(), fd.rhs)).collect();
    lines.sort();
    lines.join(";")
}

/// One worker tier of the scaling section.
struct ScalingTier {
    workers: usize,
    wall_s: f64,
    sample_s: f64,
    invert_s: f64,
    batch_pairs_per_s: f64,
    identical_fds: bool,
    steal_count: u64,
    chunks_claimed: u64,
}

/// Measures discovery and the batched sampling kernel at growing worker
/// counts. Tiers above `available_parallelism` are skipped — their numbers
/// would measure oversubscription, not scaling. Returns the measured tiers,
/// the skipped tiers, and whether every tier's FD set was byte-identical to
/// the 1-worker baseline.
fn scaling_section(full: &Relation, repeat: usize) -> (Vec<ScalingTier>, Vec<usize>, bool) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (tiers, skipped): (Vec<usize>, Vec<usize>) =
        [1usize, 2, 4, 8].into_iter().partition(|&w| w <= cores);
    let rm = full.row_major();
    let pairs = scattered_pairs(full, 1_000_000);
    let telemetry = fd_telemetry::compiled();
    if telemetry {
        fd_telemetry::set_enabled(true);
    }
    let mut baseline: Option<String> = None;
    let mut all_identical = true;
    let mut measured = Vec::new();
    for &workers in &tiers {
        let before = fd_telemetry::snapshot();
        let (wall_s, _, fds, report) = run_discovery(full, workers, repeat);
        let start = Instant::now();
        let batch = rm.agree_sets_batch(&pairs, workers);
        let batch_secs = start.elapsed().as_secs_f64();
        std::hint::black_box(batch.len());
        let after = fd_telemetry::snapshot();
        let delta = |name: &str| {
            after.counter(name).unwrap_or(0).saturating_sub(before.counter(name).unwrap_or(0))
        };
        let canon = canonical_fds(&fds);
        let identical_fds = *baseline.get_or_insert_with(|| canon.clone()) == canon;
        all_identical &= identical_fds;
        measured.push(ScalingTier {
            workers,
            wall_s,
            sample_s: report.phase_sample_s,
            invert_s: report.phase_invert_s,
            batch_pairs_per_s: pairs.len() as f64 / batch_secs,
            identical_fds,
            steal_count: delta("parallel.steal_count"),
            chunks_claimed: delta("parallel.chunks_claimed"),
        });
    }
    if telemetry {
        fd_telemetry::set_enabled(false);
    }
    (measured, skipped, all_identical)
}

/// Floor the packed kernel must clear over the scalar reference in the CI
/// gate. Deliberately below the measured ~2.4× so routine jitter does not
/// flake the gate; a kernel regression to scalar-equivalent speed still
/// trips it.
const GATE_MIN_KERNEL_SPEEDUP: f64 = 1.5;

/// Floor for 2-worker batched sampling throughput over 1-worker, applied
/// only when the host actually has ≥2 cores.
const GATE_MIN_2WORKER_SPEEDUP: f64 = 1.2;

/// Floor for the 2-worker end-to-end sampling phase (`phase_sample_s` of a
/// whole discovery, speculative compare rounds included) over 1 worker,
/// applied only when the host actually has ≥2 cores.
const GATE_MIN_2WORKER_SAMPLE_SPEEDUP: f64 = 1.15;

/// Alternating 1-/2-worker measurement pairs behind each multi-core floor.
const GATE_PAIRS: usize = 9;

/// The median over [`GATE_PAIRS`] back-to-back pairs of `secs(1) /
/// secs(2)`. Pairing and the median keep a transient load on a shared host
/// from deciding the gate, which a single run of each tier could not.
fn paired_speedup(mut secs: impl FnMut(usize) -> f64) -> f64 {
    let mut ratios: Vec<f64> =
        (0..GATE_PAIRS).map(|_| secs(1) / secs(2).max(1e-9)).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[GATE_PAIRS / 2]
}

/// CI gate mode (`--scaling-gate`): asserts the packed kernel's speedup
/// tripwire, byte-identical discovery across worker counts, and — on
/// multi-core hosts only — the 2-worker batch-throughput and end-to-end
/// sampling-phase floors.
fn run_scaling_gate(opts: &Opts) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (pps_scalar, pps_packed, kernel_speedup) = packed_kernel_microbench();
    println!(
        "gate: packed kernel {pps_packed:.0} pairs/s vs scalar {pps_scalar:.0} pairs/s \
         ({kernel_speedup:.2}x, floor {GATE_MIN_KERNEL_SPEEDUP}x)"
    );
    assert!(
        kernel_speedup >= GATE_MIN_KERNEL_SPEEDUP,
        "packed kernel regressed: {kernel_speedup:.2}x < {GATE_MIN_KERNEL_SPEEDUP}x over scalar"
    );

    let spec = synth::dataset_spec(&opts.dataset)
        .unwrap_or_else(|| usage(&format!("unknown dataset: {}", opts.dataset)));
    let full = spec.generate(opts.rows);
    let (tiers, _, all_identical) = scaling_section(&full, opts.repeat);
    for tier in &tiers {
        println!(
            "gate: {} worker(s): wall {:.3}s, sample {:.3}s, batch {:.0} pairs/s, identical_fds={}",
            tier.workers, tier.wall_s, tier.sample_s, tier.batch_pairs_per_s, tier.identical_fds
        );
    }
    assert!(all_identical, "worker counts disagreed on the FD set");

    if cores < 2 {
        println!(
            "gate: scaling floors skipped ({cores} core available; \
             multi-worker throughput would measure oversubscription)"
        );
        return;
    }
    let rm = full.row_major();
    let pairs = scattered_pairs(&full, 1_000_000);
    let ratio = paired_speedup(|workers| {
        let start = Instant::now();
        let batch = rm.agree_sets_batch(&pairs, workers);
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(batch.len());
        secs
    });
    println!(
        "gate: 2-worker sampling {ratio:.2}x over 1-worker, median of {GATE_PAIRS} pairs \
         (floor {GATE_MIN_2WORKER_SPEEDUP}x)"
    );
    let sample_ratio = paired_speedup(|workers| run_discovery(&full, workers, 1).3.phase_sample_s);
    println!(
        "gate: 2-worker discovery sample phase {sample_ratio:.2}x over 1-worker, median of \
         {GATE_PAIRS} pairs (floor {GATE_MIN_2WORKER_SAMPLE_SPEEDUP}x)"
    );
    assert!(
        ratio >= GATE_MIN_2WORKER_SPEEDUP,
        "2-worker sampling scaled only {ratio:.2}x (< {GATE_MIN_2WORKER_SPEEDUP}x) on a {cores}-core host"
    );
    assert!(
        sample_ratio >= GATE_MIN_2WORKER_SAMPLE_SPEEDUP,
        "2-worker discovery sample phase scaled only {sample_ratio:.2}x \
         (< {GATE_MIN_2WORKER_SAMPLE_SPEEDUP}x) on a {cores}-core host"
    );
}

/// Row-delta fractions measured by the delta section: 0.1%, 1%, 5%.
const DELTA_FRACS: [f64; 3] = [0.001, 0.01, 0.05];

/// Base-relation size cap for the delta section. The [`DeltaEngine`]'s cold
/// build enumerates every intra-cluster pair, and lineitem's low-cardinality
/// columns (l_linestatus has 2 labels) make that Θ(rows²) — so the section
/// runs on a capped prefix rather than the full `--rows` workload.
const DELTA_BASE_ROWS_CAP: usize = 10_000;

/// Ceiling the 1%-delta incremental/cold wall ratio must stay under in the
/// `--delta-gate` CI gate. Measured ratios sit around 3–6%; 25% is the
/// acceptance bound, far enough out that scheduler jitter cannot flake it
/// while a regression to cold-equivalent cost still trips it.
const GATE_MAX_DELTA_RATIO: f64 = 0.25;

/// One measured point of the delta section.
struct DeltaPoint {
    frac: f64,
    rows_inserted: usize,
    rows_deleted: usize,
    incremental_s: f64,
    cold_s: f64,
    candidates_revived: usize,
    identical_fds: bool,
}

impl DeltaPoint {
    fn ratio(&self) -> f64 {
        self.incremental_s / self.cold_s
    }
}

/// Measures incremental vs. cold re-discovery at each delta fraction.
///
/// One generator run produces `base + tail` rows; the base is a raw column
/// slice (labels kept verbatim, so the held-out tail rows share its label
/// space — `head()` would re-encode and break that), and each fraction's
/// delta is `k` tail rows inserted plus `k` evenly spaced rows deleted.
/// Every point starts from a pristine cold engine on the base, applies the
/// delta (timed), then cold-rebuilds the mutated relation (timed) and
/// compares the two FD sets byte-for-byte. Returns the base row count, the
/// best cold-build wall observed, and the per-fraction points.
fn delta_section(opts: &Opts) -> (usize, f64, Vec<DeltaPoint>) {
    let spec = synth::dataset_spec(&opts.dataset)
        .unwrap_or_else(|| usage(&format!("unknown dataset: {}", opts.dataset)));
    let base_rows = opts.rows.clamp(100, DELTA_BASE_ROWS_CAP);
    if base_rows < opts.rows {
        println!(
            "delta: base capped at {base_rows} rows (cold pair induction is \
             quadratic; --rows {} would not terminate in bench time)",
            opts.rows
        );
    }
    let max_k = ((base_rows as f64 * DELTA_FRACS[DELTA_FRACS.len() - 1]).ceil() as usize).max(1);
    let source = spec.generate(base_rows + max_k);
    let base = Relation::from_encoded_columns(
        format!("{}[delta-base rows={base_rows}]", opts.dataset),
        source.column_names().to_vec(),
        (0..source.n_attrs())
            .map(|a| source.column(a as u16)[..base_rows].to_vec())
            .collect(),
    );

    let mut cold_build_s = f64::INFINITY;
    let mut points = Vec::new();
    for &frac in &DELTA_FRACS {
        let k = ((base_rows as f64 * frac).round() as usize).max(1);
        let inserts: Vec<Vec<u32>> = (base_rows..base_rows + k)
            .map(|r| {
                (0..source.n_attrs()).map(|a| source.label(r as RowId, a as u16)).collect()
            })
            .collect();
        let deletes: Vec<RowId> =
            (0..k).map(|i| (i as u64 * base_rows as u64 / k as u64) as RowId).collect();

        let start = Instant::now();
        let mut engine = DeltaEngine::new(base.clone(), opts.threads);
        cold_build_s = cold_build_s.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        let report = engine.apply_delta(&inserts, &deletes);
        let incremental_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let cold = DeltaEngine::new(engine.relation().clone(), opts.threads);
        let cold_s = start.elapsed().as_secs_f64();

        points.push(DeltaPoint {
            frac,
            rows_inserted: report.rows_inserted,
            rows_deleted: report.rows_deleted,
            incremental_s,
            cold_s,
            candidates_revived: report.candidates_revived,
            identical_fds: canonical_fds(&engine.fds()) == canonical_fds(&cold.fds()),
        });
    }
    (base_rows, cold_build_s, points)
}

/// Prints one delta point in the human-readable table.
fn print_delta_point(p: &DeltaPoint) {
    println!(
        "delta: {:>5.1}% (+{} / -{} rows): incremental {:.4}s vs cold {:.4}s \
         ({:.1}% of cold, {:.1}x), revived {}, identical_fds={}",
        p.frac * 100.0,
        p.rows_inserted,
        p.rows_deleted,
        p.incremental_s,
        p.cold_s,
        p.ratio() * 100.0,
        p.cold_s / p.incremental_s,
        p.candidates_revived,
        p.identical_fds
    );
}

/// CI gate mode (`--delta-gate`): the 1% point must land at ≤
/// [`GATE_MAX_DELTA_RATIO`] of the cold wall and every point's incremental
/// FD set must be byte-identical to the cold re-discovery.
fn run_delta_gate(opts: &Opts) {
    let (base_rows, cold_build_s, points) = delta_section(opts);
    println!("gate: delta base {base_rows} rows, cold build {cold_build_s:.3}s");
    for p in &points {
        print_delta_point(p);
    }
    assert!(
        points.iter().all(|p| p.identical_fds),
        "incremental and cold FD sets diverged at some delta fraction"
    );
    let one_pct = points
        .iter()
        .find(|p| (p.frac - 0.01).abs() < 1e-12)
        .expect("the 1% point is always measured");
    assert!(
        one_pct.ratio() <= GATE_MAX_DELTA_RATIO,
        "1% delta took {:.1}% of the cold wall (gate: <= {:.0}%)",
        one_pct.ratio() * 100.0,
        GATE_MAX_DELTA_RATIO * 100.0
    );
    println!(
        "gate: 1% delta at {:.1}% of cold wall (ceiling {:.0}%)",
        one_pct.ratio() * 100.0,
        GATE_MAX_DELTA_RATIO * 100.0
    );
}

/// Renders the delta section of the output JSON.
fn delta_json(base_rows: usize, cold_build_s: f64, points: &[DeltaPoint]) -> String {
    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            rows.push_str(",\n");
        }
        write!(
            rows,
            "      {{\"frac\": {}, \"rows_inserted\": {}, \"rows_deleted\": {}, \
             \"incremental_s\": {:.6}, \"cold_rediscover_s\": {:.6}, \
             \"ratio\": {:.4}, \"speedup\": {:.2}, \"candidates_revived\": {}, \
             \"identical_fds\": {}}}",
            p.frac,
            p.rows_inserted,
            p.rows_deleted,
            p.incremental_s,
            p.cold_s,
            p.ratio(),
            p.cold_s / p.incremental_s,
            p.candidates_revived,
            p.identical_fds
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "  \"delta\": {{\n    \"base_rows\": {base_rows},\n    \
         \"cold_build_s\": {cold_build_s:.6},\n    \"points\": [\n{rows}\n    ]\n  }}"
    )
}

/// Renders an `f64` slice as a compact JSON array.
fn json_f64_array(values: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v:.6}");
    }
    out.push(']');
    out
}

fn main() {
    let opts = parse_opts();
    if opts.scaling_gate {
        run_scaling_gate(&opts);
        println!("[scaling gate passed]");
        return;
    }
    if opts.delta_gate {
        run_delta_gate(&opts);
        println!("[delta gate passed]");
        return;
    }
    let spec = synth::dataset_spec(&opts.dataset)
        .unwrap_or_else(|| usage(&format!("unknown dataset: {}", opts.dataset)));
    let full = spec.generate(opts.rows);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let points = [opts.rows / 4, opts.rows / 2, opts.rows];
    let mut json_points = String::new();
    let mut max_speedup: f64 = 0.0;
    let mut all_identical = true;
    let mut full_fds = FdSet::new();
    let mut full_report = EulerFdReport::default();

    println!(
        "bench_smoke: {} up to {} rows, 1 vs {} threads (best of {}, {} core(s) available)",
        opts.dataset, opts.rows, opts.threads, opts.repeat, cores
    );
    println!(
        "{:>10} {:>12} {:>12} {:>14} {:>14} {:>9}",
        "rows", "wall 1t [s]", "wall Nt [s]", "pairs/s 1t", "pairs/s Nt", "speedup"
    );
    for (i, &rows) in points.iter().enumerate() {
        let relation = full.head(rows.max(1));
        let (secs_1, pairs, fds_1, _) = run_discovery(&relation, 1, opts.repeat);
        let (secs_n, pairs_n, fds_n, report_n) = run_discovery(&relation, opts.threads, opts.repeat);
        assert_eq!(pairs, pairs_n, "pair schedule must be thread-invariant");
        let identical = fds_1 == fds_n;
        all_identical &= identical;
        let speedup = secs_1 / secs_n;
        max_speedup = max_speedup.max(speedup);
        let pps_1 = pairs as f64 / secs_1;
        let pps_n = pairs as f64 / secs_n;
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>14.0} {:>14.0} {:>8.2}x",
            relation.n_rows(),
            secs_1,
            secs_n,
            pps_1,
            pps_n,
            speedup
        );
        if i > 0 {
            json_points.push_str(",\n");
        }
        write!(
            json_points,
            "    {{\"rows\": {}, \"pairs_compared\": {}, \"wall_s_1t\": {:.6}, \
             \"wall_s_nt\": {:.6}, \"pairs_per_s_1t\": {:.1}, \"pairs_per_s_nt\": {:.1}, \
             \"speedup\": {:.3}, \"identical_fds\": {}}}",
            relation.n_rows(),
            pairs,
            secs_1,
            secs_n,
            pps_1,
            pps_n,
            speedup,
            identical
        )
        .expect("writing to a String cannot fail");
        if rows == opts.rows {
            full_fds = fds_n;
            full_report = report_n;
        }
    }

    let (pps_col, pps_row, layout_speedup) = kernel_layout_speedup(&full);
    println!(
        "kernel layout: column-major {:.0} pairs/s, row-major {:.0} pairs/s ({:.2}x)",
        pps_col, pps_row, layout_speedup
    );
    let (pps_scalar, pps_packed, packed_speedup) = packed_kernel_microbench();
    println!(
        "packed kernel (width 24): scalar {:.0} pairs/s, packed {:.0} pairs/s ({:.2}x)",
        pps_scalar, pps_packed, packed_speedup
    );

    let (scaling_tiers, scaling_skipped, scaling_identical) = scaling_section(&full, opts.repeat);
    for tier in &scaling_tiers {
        println!(
            "scaling: {} worker(s): wall {:.3}s (sample {:.3}s, invert {:.3}s), \
             batch {:.0} pairs/s, steals {}, chunks {}, identical_fds={}",
            tier.workers,
            tier.wall_s,
            tier.sample_s,
            tier.invert_s,
            tier.batch_pairs_per_s,
            tier.steal_count,
            tier.chunks_claimed,
            tier.identical_fds
        );
    }
    if !scaling_skipped.is_empty() {
        println!(
            "scaling: skipped tiers {:?} (> {} available core(s))",
            scaling_skipped, cores
        );
    }
    let mut scaling_json = String::new();
    for (i, tier) in scaling_tiers.iter().enumerate() {
        if i > 0 {
            scaling_json.push_str(",\n");
        }
        write!(
            scaling_json,
            "      {{\"workers\": {}, \"wall_s\": {:.6}, \"sample_s\": {:.6}, \
             \"invert_s\": {:.6}, \"batch_pairs_per_s\": {:.1}, \"identical_fds\": {}, \
             \"steal_count\": {}, \"chunks_claimed\": {}}}",
            tier.workers,
            tier.wall_s,
            tier.sample_s,
            tier.invert_s,
            tier.batch_pairs_per_s,
            tier.identical_fds,
            tier.steal_count,
            tier.chunks_claimed
        )
        .expect("writing to a String cannot fail");
    }
    let scaling_skipped_json = scaling_skipped
        .iter()
        .map(|w| w.to_string())
        .collect::<Vec<_>>()
        .join(", ");

    let (validate_s, validated, exact, _) = validate_phase(&full, &full_fds);
    let (csr_s, legacy_s, product_speedup, products, products_identical) =
        partition_product_microbench(&full, 3);
    println!(
        "phases: sample {:.3}s, invert {:.3}s, validate {:.3}s ({}/{} exact), \
         partition-product {:.3}s CSR vs {:.3}s nested-vec ({:.2}x over {} products)",
        full_report.phase_sample_s,
        full_report.phase_invert_s,
        validate_s,
        exact,
        validated,
        csr_s,
        legacy_s,
        product_speedup,
        products
    );

    // ---- Telemetry section (ISSUE 5): one feature-on binary measures its
    // own overhead by flipping the runtime flag, then leaves it on to
    // harvest the cycle trace, PLI-cache economics, and budget trips.
    fd_telemetry::reset();
    fd_telemetry::set_enabled(false);
    let (off_s, _, _, _) = run_discovery(&full, opts.threads, opts.repeat);
    fd_telemetry::set_enabled(true);
    let (on_s, _, _, trace_report) = run_discovery(&full, opts.threads, opts.repeat);
    let overhead_pct = (on_s / off_s - 1.0) * 100.0;
    let (_, _, _, cache_stats) = validate_phase(&full, &full_fds);
    let trips = budget_trip_runs(&full, opts.threads);
    let snap = fd_telemetry::snapshot();
    fd_telemetry::set_enabled(false);

    let sample_rounds = snap.events_named("euler.sample_round").count();
    let cycle_events = snap.events_named("euler.cycle").count();
    println!(
        "telemetry: compiled={}, wall off {:.3}s vs on {:.3}s ({:+.2}%), \
         pli hit rate {:.3} ({} hits / {} misses), \
         trips: euler {} ({} polls), tane {} ({} polls)",
        fd_telemetry::compiled(),
        off_s,
        on_s,
        overhead_pct,
        cache_stats.hit_rate(),
        cache_stats.hits,
        cache_stats.misses,
        trips[0].0,
        trips[0].3,
        trips[1].0,
        trips[1].3
    );

    // ---- Faults section (ISSUE 7): quantify the injection sites' cost.
    // Without the `faults` feature, `inject!` expands to a branch on a
    // `const fn` returning false, so the optimizer deletes every site and
    // the disarmed wall time IS the baseline — nothing to measure. With
    // the feature on, measure both tiers: disarmed (one relaxed atomic
    // load per site) and armed with an empty plan (mutex + site lookup
    // per hit, the worst case that never fires anything).
    let faults_compiled = fd_faults::compiled();
    let faults_json = if faults_compiled {
        let (disarmed_s, _, _, _) = run_discovery(&full, opts.threads, opts.repeat);
        let plan_guard = fd_faults::install_guard(fd_faults::FaultPlan::new(0));
        let (armed_s, _, _, _) = run_discovery(&full, opts.threads, opts.repeat);
        drop(plan_guard);
        let faults_overhead_pct = (armed_s / disarmed_s - 1.0) * 100.0;
        println!(
            "faults: compiled=true, wall disarmed {disarmed_s:.3}s vs \
             armed(empty plan) {armed_s:.3}s ({faults_overhead_pct:+.2}%)"
        );
        format!(
            "  \"faults\": {{\"compiled\": true, \"overhead\": \
             {{\"wall_s_disarmed\": {disarmed_s:.6}, \
             \"wall_s_armed_empty_plan\": {armed_s:.6}, \
             \"overhead_pct\": {faults_overhead_pct:.3}}}}}"
        )
    } else {
        println!("faults: compiled=false (inject! sites compile away; zero cost by construction)");
        "  \"faults\": {\"compiled\": false}".to_string()
    };

    // ---- Delta section (ISSUE 8): incremental maintenance vs. cold
    // re-discovery at growing row-delta fractions.
    let (delta_base_rows, delta_cold_build_s, delta_points) = delta_section(&opts);
    println!("delta: base {delta_base_rows} rows, cold build {delta_cold_build_s:.3}s");
    for p in &delta_points {
        print_delta_point(p);
    }
    let delta_identical = delta_points.iter().all(|p| p.identical_fds);
    let delta_section_json = delta_json(delta_base_rows, delta_cold_build_s, &delta_points);

    let telemetry_json = format!(
        "  \"telemetry\": {{\n    \"compiled\": {},\n    \
         \"overhead\": {{\"wall_s_off\": {:.6}, \"wall_s_on\": {:.6}, \
         \"overhead_pct\": {:.3}}},\n    \
         \"cycle_trace\": {{\n      \"sample_round_events\": {},\n      \
         \"cycle_events\": {},\n      \"gr_ncover\": {},\n      \
         \"gr_pcover\": {}\n    }},\n    \
         \"pli_cache\": {{\"hits\": {}, \"misses\": {}, \"hit_rate\": {:.4}, \
         \"products\": {}, \"evictions_row_budget\": {}, \
         \"evictions_entry_cap\": {}, \"resident_rows_hwm\": {}}},\n    \
         \"budget_trips\": {{\n{},\n{}\n    }},\n    \
         \"snapshot\": {}\n  }}",
        fd_telemetry::compiled(),
        off_s,
        on_s,
        overhead_pct,
        sample_rounds,
        cycle_events,
        json_f64_array(&trace_report.gr_ncover),
        json_f64_array(&trace_report.gr_pcover),
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.hit_rate(),
        cache_stats.products,
        cache_stats.evictions_row_budget,
        cache_stats.evictions_entry_cap,
        cache_stats.resident_rows_hwm,
        trip_json("euler", &trips[0]),
        trip_json("tane", &trips[1]),
        snap.to_json().trim_end()
    );

    let json = format!(
        "{{\n  \"bench\": \"bench_smoke\",\n  \"dataset\": \"{}\",\n  \"threads\": {},\n  \
         \"repeat\": {},\n  \"available_cores\": {},\n  \"points\": [\n{}\n  ],\n  \
         \"max_thread_speedup\": {:.3},\n  \
         \"phases\": {{\n    \"sample_s\": {:.6},\n    \"invert_s\": {:.6},\n    \
         \"validate_s\": {:.6},\n    \"partition_product_s\": {:.6}\n  }},\n  \
         \"validated_fds\": {},\n  \"validated_exact\": {},\n  \
         \"partition_product\": {{\n    \"products\": {},\n    \"csr_s\": {:.6},\n    \
         \"nested_vec_s\": {:.6},\n    \"speedup\": {:.3},\n    \"identical\": {}\n  }},\n  \
         \"kernel_pairs_per_s_column_major\": {:.1},\n  \
         \"kernel_pairs_per_s_row_major\": {:.1},\n  \
         \"kernel_layout_speedup\": {:.3},\n  \
         \"packed_kernel\": {{\n    \"width\": 24,\n    \
         \"pairs_per_s_scalar\": {:.1},\n    \"pairs_per_s_packed\": {:.1},\n    \
         \"speedup\": {:.3}\n  }},\n  \
         \"scaling\": {{\n    \"tiers\": [\n{}\n    ],\n    \
         \"skipped_tiers\": [{}],\n    \"identical_fds\": {}\n  }},\n  \
         \"all_identical_fds\": {},\n{},\n{},\n{}\n}}\n",
        opts.dataset,
        opts.threads,
        opts.repeat,
        cores,
        json_points,
        max_speedup,
        full_report.phase_sample_s,
        full_report.phase_invert_s,
        validate_s,
        csr_s,
        validated,
        exact,
        products,
        csr_s,
        legacy_s,
        product_speedup,
        products_identical,
        pps_col,
        pps_row,
        layout_speedup,
        pps_scalar,
        pps_packed,
        packed_speedup,
        scaling_json,
        scaling_skipped_json,
        scaling_identical,
        all_identical,
        delta_section_json,
        faults_json,
        telemetry_json
    );
    std::fs::write(&opts.out, &json)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", opts.out));
    println!("[saved {}]", opts.out);
    assert!(all_identical, "thread counts disagreed on the FD set");
    assert!(scaling_identical, "scaling tiers disagreed on the FD set");
    assert!(products_identical, "CSR and nested-vec products disagreed");
    assert!(delta_identical, "incremental and cold delta FD sets disagreed");
}
