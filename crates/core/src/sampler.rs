//! The EulerFD sampling module (Section IV-C, Algorithm 1).
//!
//! Combines the MLFQ across clusters (which *suggests the sampling range*)
//! with a sliding window inside each cluster (which enumerates tuple pairs
//! without repetition). Each `sample()` call compares the pairs at the
//! cluster's current window distance, measures the sample's contribution
//!
//! ```text
//! capa = new non-FDs / tuple pairs compared in this sample
//! ```
//!
//! and requeues the cluster by that capa — unless its average capa over the
//! most recent samples dropped to 0, in which case it retires.

use crate::config::EulerFdConfig;
use crate::mlfq::{ClusterId, Mlfq};
use fd_core::parallel::ROUND_PAIRS_PER_WORKER;
use fd_core::{AttrSet, Budget, FastHashSet, Fd, NCover, Termination};
use fd_relation::{sampling_clusters_parallel, Relation, RowId, RowMajor, WindowJob};
use std::collections::VecDeque;

/// Counters exposed in the discovery report.
#[derive(Clone, Debug, Default)]
pub struct SamplerStats {
    /// Tuple pairs of the samples Algorithm 1 took (speculated pairs count
    /// once their sample is consumed, so a pair budget means the same at
    /// every thread count).
    pub pairs_compared: u64,
    /// Tuple pairs compared by compare rounds, consumed or not. Diagnostic
    /// only: the speculative lookahead depends on the thread count, and
    /// pairs speculated for clusters the run never samples again are
    /// wasted, so this may exceed `pairs_compared`.
    pub speculated_pairs: u64,
    /// Agree sets that survived the comparison kernel's novelty pre-filter
    /// and reached the sequential cover fold. Diagnostic only: a round may
    /// pre-filter against an older snapshot of the seen-set, and a set
    /// straddling two position ranges of one cluster is counted once per
    /// range, so this may grow with the thread count (the fold collapses
    /// duplicates, keeping the covers themselves thread-invariant).
    pub fold_candidates: u64,
    /// `sample()` invocations.
    pub samples: u64,
    /// Compare rounds run (one per sample at 1 thread).
    pub compare_rounds: u64,
    /// Largest number of kernel worker threads any compare round used.
    pub peak_workers: usize,
    /// Clusters in the initial population.
    pub clusters_total: usize,
    /// Cluster retirement events under the zero-capa rule (a revived cluster
    /// can retire again).
    pub clusters_retired: usize,
    /// Clusters that ran out of window positions.
    pub clusters_exhausted: usize,
    /// Clusters re-enqueued by cycle 2 after the MLFQ drained.
    pub revivals: usize,
}

/// Sampling state of one cluster.
struct ClusterState {
    rows: Vec<RowId>,
    /// Current window size; the pair compared at position `i` is
    /// `(rows[i], rows[i + window - 1])`. Starts at 2 and grows by one per
    /// sample, so no pair is ever compared twice.
    window: usize,
    /// capa values of the most recent samples (bounded FIFO).
    recent: VecDeque<f64>,
    /// The compare result of this cluster's sample, computed ahead by a
    /// speculative round: the window it was computed at and the novel
    /// candidates in pair order.
    speculated: Option<(usize, Vec<AttrSet>)>,
}

impl ClusterState {
    fn job(&self) -> WindowJob<'_> {
        WindowJob { rows: &self.rows, window: self.window }
    }
}

/// The sampling module: cluster population + MLFQ + agree-set dedup.
///
/// Each sample is executed in three steps: **plan** (the cluster's current
/// window positions — sequential, driven by the MLFQ), **compare** (the
/// data-parallel [`RowMajor`] kernel computes agree sets and pre-filters
/// already-seen ones), and **fold** (candidates enter the negative cover
/// sequentially, in pair order).
///
/// The compare step runs in **speculative rounds**: when a sample has no
/// precomputed result, the round compares that cluster together with the
/// clusters Algorithm 1 will sample next (the following cluster ids during
/// the initial pass, the MLFQ's pop order afterwards), up to
/// [`ROUND_PAIRS_PER_WORKER`] pairs per worker. Each result is stored with
/// its `(cluster, window)` and consumed when the cluster is actually sampled
/// at that window. This is exact: the compare is a pure function of
/// `(cluster, window)`, a window only advances when its cluster is sampled,
/// and the pre-filter's seen-set snapshot is a subset of the set at fold
/// time, where the fold re-checks it. So the covers, `pairs_compared` and
/// every capa — hence the MLFQ schedule — are identical for every thread
/// count. At one thread a round holds only the sampled cluster.
pub struct Sampler {
    clusters: Vec<ClusterState>,
    mlfq: Mlfq,
    /// Clusters retired by the zero-capa rule but not yet fully enumerated;
    /// cycle 2 revives these when the positive cover is still unstable.
    retired: Vec<ClusterId>,
    seen_agree: FastHashSet<AttrSet>,
    /// Row-major mirror of the relation: the compare step's layout.
    row_major: RowMajor,
    /// Kernel worker threads (resolved; ≥ 1).
    threads: usize,
    /// True while [`Sampler::initial_pass`] walks the clusters in id order;
    /// selects the lookahead order of compare rounds.
    in_initial_pass: bool,
    /// Reused buffers of `compare_round`: the round's clusters and their
    /// candidate lists (a round runs per sample at one thread).
    round_ids: Vec<ClusterId>,
    round_results: Vec<Vec<AttrSet>>,
    recent_window: usize,
    stats: SamplerStats,
}

impl Sampler {
    /// Builds the cluster population from the relation's stripped
    /// partitions; the MLFQ starts empty until [`Sampler::initial_pass`].
    pub fn new(relation: &Relation, config: &EulerFdConfig) -> Self {
        let threads = config.resolved_threads();
        let clusters = sampling_clusters_parallel(relation, threads);
        Self::from_cluster_rows(clusters, relation, config)
    }

    /// [`Sampler::new`] with the single-attribute partitions built — or
    /// reused — through a [`fd_relation::PliCache`]. This is the long-lived
    /// serving path: a catalog keeps the pinned singles resident across
    /// requests, so repeat discoveries skip the partition build entirely.
    /// The cluster population (and with it every downstream result) is
    /// byte-identical to the uncached constructor.
    pub fn new_cached(
        relation: &Relation,
        config: &EulerFdConfig,
        cache: &mut fd_relation::PliCache,
    ) -> Self {
        let clusters = fd_relation::sampling_clusters_cached(relation, cache);
        Self::from_cluster_rows(clusters, relation, config)
    }

    fn from_cluster_rows(
        clusters: Vec<Vec<RowId>>,
        relation: &Relation,
        config: &EulerFdConfig,
    ) -> Self {
        let clusters: Vec<ClusterState> = clusters
            .into_iter()
            .map(|rows| ClusterState {
                rows,
                window: 2,
                recent: VecDeque::new(),
                speculated: None,
            })
            .collect();
        let stats = SamplerStats { clusters_total: clusters.len(), ..Default::default() };
        Sampler {
            clusters,
            mlfq: Mlfq::new(config.queue_bounds()),
            retired: Vec::new(),
            seen_agree: FastHashSet::default(),
            row_major: relation.row_major(),
            threads: config.resolved_threads(),
            in_initial_pass: false,
            round_ids: Vec::new(),
            round_results: Vec::new(),
            recent_window: config.recent_window.max(1),
            stats,
        }
    }

    /// Algorithm 1 lines 2–4: sample every cluster once with the initial
    /// window of 2 and enqueue it by the observed capa.
    pub fn initial_pass(&mut self, relation: &Relation, ncover: &mut NCover, pending: &mut Vec<Fd>) {
        self.initial_pass_budgeted(relation, ncover, pending, &Budget::unlimited());
    }

    /// [`Sampler::initial_pass`] under a budget: polls between clusters and
    /// stops early on a trip, returning the reason. Clusters not sampled
    /// stay out of the MLFQ — exactly as if the queue had drained.
    pub fn initial_pass_budgeted(
        &mut self,
        _relation: &Relation,
        ncover: &mut NCover,
        pending: &mut Vec<Fd>,
        budget: &Budget,
    ) -> Option<Termination> {
        self.in_initial_pass = true;
        let mut tripped = None;
        for id in 0..self.clusters.len() {
            if let Some(t) = budget.poll(self.stats.pairs_compared, ncover.len()) {
                tripped = Some(t);
                break;
            }
            self.sample_cluster(id as ClusterId, ncover, pending);
        }
        self.in_initial_pass = false;
        tripped
    }

    /// Algorithm 1 lines 5–10: one sample of the head of the highest
    /// non-empty queue. Returns false when the MLFQ is empty.
    pub fn sample_next(
        &mut self,
        _relation: &Relation,
        ncover: &mut NCover,
        pending: &mut Vec<Fd>,
    ) -> bool {
        match self.mlfq.pop() {
            Some(id) => {
                self.sample_cluster(id, ncover, pending);
                true
            }
            None => false,
        }
    }

    /// The compare step for cluster `id` at its current window: compares it
    /// in one round together with the clusters sampled after it, until the
    /// round holds [`ROUND_PAIRS_PER_WORKER`] pairs per worker, and stores
    /// every result on its cluster. Clusters that already hold a result
    /// count toward the target but are not compared again, which bounds
    /// the work stored ahead to about one round.
    fn compare_round(&mut self, id: ClusterId) {
        let mut ids = std::mem::take(&mut self.round_ids);
        ids.clear();
        ids.push(id);
        if self.threads > 1 {
            let target = ROUND_PAIRS_PER_WORKER * self.threads;
            let mut planned = self.clusters[id as usize].job().pairs();
            let n = self.clusters.len() as ClusterId;
            let upcoming: Box<dyn Iterator<Item = ClusterId> + '_> = if self.in_initial_pass {
                Box::new(id + 1..n)
            } else {
                Box::new(self.mlfq.iter())
            };
            for next in upcoming {
                if planned >= target {
                    break;
                }
                let state = &self.clusters[next as usize];
                let pairs = state.job().pairs();
                planned += pairs;
                if state.speculated.is_none() && pairs > 0 {
                    ids.push(next);
                }
            }
        }
        let jobs: Vec<WindowJob<'_>> =
            ids.iter().map(|&c| self.clusters[c as usize].job()).collect();
        let mut results = std::mem::take(&mut self.round_results);
        let batch = self.row_major.novel_agree_sets_round(
            &jobs,
            &self.seen_agree,
            self.threads,
            &mut results,
        );
        self.stats.speculated_pairs += batch.pairs_compared;
        self.stats.compare_rounds += 1;
        self.stats.peak_workers = self.stats.peak_workers.max(batch.workers);
        for (&c, candidates) in ids.iter().zip(results.drain(..)) {
            let state = &mut self.clusters[c as usize];
            state.speculated = Some((state.window, candidates));
        }
        self.round_ids = ids;
        self.round_results = results;
    }

    /// Algorithm 1 lines 13–21 (`sample(cluster)`), as plan → compare → fold.
    fn sample_cluster(&mut self, id: ClusterId, ncover: &mut NCover, pending: &mut Vec<Fd>) {
        let state = &mut self.clusters[id as usize];
        let len = state.rows.len();
        let window = state.window;
        if window > len {
            self.stats.clusters_exhausted += 1;
            return; // no pair left at any position; cluster is spent
        }
        let pairs = len - window + 1;

        // Compare: consume the result a round stored for this window, or
        // run a round that starts with this cluster.
        let candidates = match state.speculated.take() {
            Some((w, candidates)) if w == window => candidates,
            _ => {
                self.compare_round(id);
                let state = &mut self.clusters[id as usize];
                state.speculated.take().map(|(_, c)| c).unwrap_or_default()
            }
        };

        // Fold: sequential, in pair order. Re-checking `seen_agree.insert`
        // keeps the cover semantics exact: the round pre-filtered against an
        // older subset of `seen_agree`, and a set may reach the fold once
        // per position range of a split cluster.
        let mut new_non_fds = 0usize;
        let mut duplicates = 0u64;
        self.stats.fold_candidates += candidates.len() as u64;
        for agree in candidates {
            if self.seen_agree.insert(agree) {
                new_non_fds += ncover.add_agree_set_collect(agree, pending);
            } else {
                duplicates += 1;
            }
        }
        self.stats.pairs_compared += pairs as u64;
        self.stats.samples += 1;
        fd_telemetry::counter!("euler.sampler.samples", 1);
        fd_telemetry::counter!("euler.sampler.pairs_compared", pairs as u64);
        // Thread-dependent diagnostic, like `fold_candidates`: a round's
        // pre-filter snapshot can be older than the fold's seen-set.
        fd_telemetry::counter!("euler.sampler.duplicate_candidates", duplicates);
        fd_telemetry::counter!("euler.sampler.new_non_fds", new_non_fds as u64);
        let capa = new_non_fds as f64 / pairs as f64;
        let state = &mut self.clusters[id as usize];
        if state.recent.len() == self.recent_window {
            state.recent.pop_front();
        }
        state.recent.push_back(capa);
        state.window += 1;

        // Requeue while the recent average capa is positive (line 17). A
        // cluster only retires once a full recent window of samples is all
        // zero — one unproductive sample first sinks it to the lowest queue
        // and "waits for continuous sampling" (Figure 3 narrative). The
        // window bound retires clusters that are fully enumerated.
        let avg: f64 = state.recent.iter().sum::<f64>() / state.recent.len() as f64;
        if state.window > state.rows.len() {
            self.stats.clusters_exhausted += 1;
        } else if avg > 0.0 || state.recent.len() < self.recent_window {
            self.mlfq.push(id, capa);
        } else {
            self.retired.push(id);
            self.stats.clusters_retired += 1;
            fd_telemetry::counter!("euler.sampler.clusters_retired", 1);
        }
    }

    /// True when no cluster is queued for further sampling.
    pub fn is_exhausted(&self) -> bool {
        self.mlfq.is_empty()
    }

    /// Cycle 2's "return to the sampling module" when the queue has already
    /// drained: re-enqueues every retired-but-not-exhausted cluster (with a
    /// cleared capa history, so each gets a fresh recent window before it
    /// can retire again). Returns how many clusters were revived.
    pub fn revive_retired(&mut self) -> usize {
        let mut revived = 0;
        for id in std::mem::take(&mut self.retired) {
            let state = &mut self.clusters[id as usize];
            if state.window > state.rows.len() {
                continue; // fully enumerated since retirement bookkeeping
            }
            state.recent.clear();
            self.mlfq.push(id, 0.0);
            revived += 1;
        }
        self.stats.revivals += revived;
        fd_telemetry::counter!("euler.sampler.revivals", revived as u64);
        revived
    }

    /// Counters so far.
    pub fn stats(&self) -> &SamplerStats {
        &self.stats
    }

    /// Current queue occupancy (diagnostics / report).
    pub fn mlfq_occupancy(&self) -> Vec<usize> {
        self.mlfq.occupancy()
    }

    /// MLFQ requeues into higher-priority queues so far (cycle trace).
    pub fn mlfq_promotions(&self) -> u64 {
        self.mlfq.promotions()
    }

    /// MLFQ requeues into lower-priority queues so far (cycle trace).
    pub fn mlfq_demotions(&self) -> u64 {
        self.mlfq.demotions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_relation::synth::patient;

    fn setup() -> (Relation, Sampler, NCover, Vec<Fd>) {
        let r = patient();
        let config = EulerFdConfig::default();
        let sampler = Sampler::new(&r, &config);
        let ncover = NCover::new(r.n_attrs());
        (r, sampler, ncover, Vec::new())
    }

    #[test]
    fn initial_pass_samples_every_cluster_once() {
        let (r, mut sampler, mut ncover, mut pending) = setup();
        let n_clusters = sampler.clusters.len();
        assert!(n_clusters > 0);
        sampler.initial_pass(&r, &mut ncover, &mut pending);
        assert_eq!(sampler.stats().samples, n_clusters as u64);
        // Window-2 comparisons of clustered tuples must surface non-FDs on
        // the patient data (e.g. G ↛ N from the Gender cluster).
        assert!(!ncover.is_empty());
        assert!(!pending.is_empty());
    }

    #[test]
    fn window_grows_and_pairs_are_never_repeated() {
        let (r, mut sampler, mut ncover, mut pending) = setup();
        sampler.initial_pass(&r, &mut ncover, &mut pending);
        let mut total = sampler.stats().pairs_compared;
        while sampler.sample_next(&r, &mut ncover, &mut pending) {
            let now = sampler.stats().pairs_compared;
            assert!(now >= total);
            total = now;
        }
        // Exhaustive bound: a cluster of size k has k·(k−1)/2 distinct pairs.
        let max_pairs: u64 = sampler
            .clusters
            .iter()
            .map(|c| (c.rows.len() * (c.rows.len() - 1) / 2) as u64)
            .sum();
        assert!(total <= max_pairs, "compared {total} > possible {max_pairs}");
    }

    #[test]
    fn figure_3_window_positions() {
        // The paper's Figure 3 cluster c1 = Gender's Female cluster
        // {t1,t3,t4,t5,t6,t7}: window 2 yields 5 pairs, window 3 yields 4,
        // window 4 yields 3.
        let (r, mut sampler, mut ncover, mut pending) = setup();
        let c1 = sampler
            .clusters
            .iter()
            .position(|c| c.rows == vec![0, 2, 3, 4, 5, 6])
            .expect("Female cluster present") as ClusterId;
        sampler.sample_cluster(c1, &mut ncover, &mut pending);
        assert_eq!(sampler.stats().pairs_compared, 5);
        sampler.sample_cluster(c1, &mut ncover, &mut pending);
        assert_eq!(sampler.stats().pairs_compared, 9);
        sampler.sample_cluster(c1, &mut ncover, &mut pending);
        assert_eq!(sampler.stats().pairs_compared, 12);
    }

    #[test]
    fn revival_requeues_only_unexhausted_clusters() {
        let (r, mut sampler, mut ncover, mut pending) = setup();
        sampler.initial_pass(&r, &mut ncover, &mut pending);
        while sampler.sample_next(&r, &mut ncover, &mut pending) {}
        assert!(sampler.is_exhausted());
        let retired_before = sampler.retired.len();
        let revived = sampler.revive_retired();
        assert_eq!(revived, retired_before, "all retirees still have windows left");
        assert_eq!(sampler.stats().revivals, revived);
        if revived > 0 {
            assert!(!sampler.is_exhausted());
            // Revived clusters sample again without panicking and without
            // repeating pairs (window monotonicity is preserved).
            let pairs_before = sampler.stats().pairs_compared;
            while sampler.sample_next(&r, &mut ncover, &mut pending) {}
            assert!(sampler.stats().pairs_compared >= pairs_before);
        }
        // Drain-revive loops terminate: windows only grow.
        let mut rounds = 0;
        while sampler.revive_retired() > 0 {
            while sampler.sample_next(&r, &mut ncover, &mut pending) {}
            rounds += 1;
            assert!(rounds < 100, "revival must terminate");
        }
    }

    #[test]
    fn revival_clears_recent_history() {
        let (r, mut sampler, mut ncover, mut pending) = setup();
        sampler.initial_pass(&r, &mut ncover, &mut pending);
        while sampler.sample_next(&r, &mut ncover, &mut pending) {}
        if sampler.revive_retired() > 0 {
            // Every revived cluster gets a full fresh recent window before it
            // can retire again: one zero-capa sample must not retire it.
            let before = sampler.stats().clusters_retired;
            let popped = sampler.mlfq.pop().expect("revived cluster queued");
            sampler.sample_cluster(popped, &mut ncover, &mut pending);
            let state = &sampler.clusters[popped as usize];
            if state.window <= state.rows.len() {
                assert_eq!(
                    sampler.stats().clusters_retired,
                    before,
                    "first post-revival sample must not retire the cluster"
                );
            }
        }
    }

    /// Two clusters, {0,1} and {2,3}, whose window-2 pairs share the agree
    /// set {x, z}; the constant column z adds a third cluster.
    fn shared_agree_relation() -> Relation {
        let mut b = fd_relation::RelationBuilder::new(
            "shared",
            vec!["x".to_string(), "y".to_string(), "z".to_string()],
        );
        for row in [["0", "0", "0"], ["0", "1", "0"], ["1", "2", "0"], ["1", "3", "0"]] {
            b.push_row(&row);
        }
        b.finish()
    }

    fn cluster_of(sampler: &Sampler, rows: &[RowId]) -> ClusterId {
        sampler.clusters.iter().position(|c| c.rows == rows).expect("cluster present")
            as ClusterId
    }

    #[test]
    fn speculated_clusters_folded_out_of_order_match_unspeculated_run() {
        let r = shared_agree_relation();
        let config = EulerFdConfig::default();
        let run = |speculate: bool| {
            let mut sampler = Sampler::new(&r, &config);
            let a = cluster_of(&sampler, &[0, 1]);
            let b = cluster_of(&sampler, &[2, 3]);
            let mut ncover = NCover::new(r.n_attrs());
            let mut pending = Vec::new();
            if speculate {
                // One round from cluster a speculates every later cluster id
                // (b included) against the same empty seen-set snapshot.
                sampler.threads = 2;
                sampler.in_initial_pass = true;
                sampler.compare_round(a.min(b));
                sampler.in_initial_pass = false;
                let shared = AttrSet::from_attrs([0, 2]);
                for c in [a, b] {
                    let (w, candidates) =
                        sampler.clusters[c as usize].speculated.as_ref().expect("speculated");
                    assert_eq!(*w, 2);
                    assert_eq!(candidates, &vec![shared], "cluster {c}");
                }
                assert_eq!(sampler.stats().compare_rounds, 1);
            }
            // Fold in the opposite order of the round: b, then a.
            sampler.sample_cluster(b, &mut ncover, &mut pending);
            sampler.sample_cluster(a, &mut ncover, &mut pending);
            assert_eq!(sampler.stats().pairs_compared, 2);
            let capa = |c: ClusterId| sampler.clusters[c as usize].recent.clone();
            (format!("{:?}", ncover.to_fds()), pending, capa(b), capa(a))
        };
        let (plain_cover, plain_pending, plain_b, plain_a) = run(false);
        let (spec_cover, spec_pending, spec_b, spec_a) = run(true);
        assert_eq!(spec_cover, plain_cover);
        assert_eq!(spec_pending, plain_pending);
        // b, folded first, is credited with the shared set; a's sample finds
        // nothing new either way.
        assert_eq!(spec_b, plain_b);
        assert!(plain_b[0] > 0.0);
        assert_eq!(spec_a, plain_a);
        assert_eq!(plain_a, VecDeque::from(vec![0.0]));
    }

    #[test]
    fn one_thread_rounds_hold_only_the_sampled_cluster() {
        let (r, mut sampler, mut ncover, mut pending) = setup();
        sampler.initial_pass(&r, &mut ncover, &mut pending);
        while sampler.sample_next(&r, &mut ncover, &mut pending) {}
        let s = sampler.stats();
        assert_eq!(s.compare_rounds, s.samples);
        assert_eq!(s.speculated_pairs, s.pairs_compared);
    }

    #[test]
    fn zero_capa_twice_retires_a_cluster() {
        let (r, mut sampler, mut ncover, mut pending) = setup();
        // Exhaust all evidence first so every further sample has capa 0.
        sampler.initial_pass(&r, &mut ncover, &mut pending);
        while sampler.sample_next(&r, &mut ncover, &mut pending) {}
        assert!(sampler.is_exhausted());
        let s = sampler.stats();
        assert_eq!(
            s.clusters_total,
            s.clusters_retired + s.clusters_exhausted,
            "every cluster ends retired or exhausted: {s:?}"
        );
    }
}
