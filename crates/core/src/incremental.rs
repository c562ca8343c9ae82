//! Incremental delta maintenance of a discovered FD cover (PR 8 tentpole).
//!
//! A [`DeltaEngine`] owns a relation together with the *exact* negative and
//! positive covers of its current contents, plus the evidence bookkeeping
//! needed to keep both covers correct across row inserts and deletes without
//! re-running discovery from scratch:
//!
//! * **Support multiset** — `support[S]` counts, for every non-empty agree
//!   set `S`, the number of *(pair, column)* incidences that produced it:
//!   `|S| ×` the number of unordered row pairs whose agree set is exactly
//!   `S`. A pair is co-clustered in column `c` iff `c ∈ S`, so per-column
//!   intra-cluster enumeration visits each pair exactly `|S|` times; the
//!   count therefore hits zero exactly when the last supporting pair dies.
//! * **Insert path** — only pairs involving an inserted row can create new
//!   evidence. Their agree sets are computed with the bit-packed
//!   [`RowMajor::agree_set`] kernel, folded into the negative cover, and the
//!   resulting non-FDs are inverted through the normal batch-inversion
//!   machinery. Inserts are monotone: existing candidates only specialize.
//! * **Delete path** — evidence can die. Agree sets whose support reaches
//!   zero (and `∅ ↛ a` seeds of columns that became constant) mark their
//!   RHS *affected*; each affected RHS tree is rebuilt from the surviving
//!   support keys and re-inverted bottom-up, reviving minimal FDs that the
//!   dead evidence had invalidated.
//!
//! The result is byte-identical to a cold rebuild on the post-delta
//! relation — both covers are canonical functions of the *set* of surviving
//! agree sets plus per-column constancy, which is exactly what the engine
//! maintains. Under an injected `delta.apply` allocation failure the engine
//! falls back to that cold rebuild, trading time for a guaranteed answer —
//! never a wrong one.

use fd_core::{
    invert_ncover_parallel, AttrId, AttrSet, FastHashMap, FastHashSet, Fd, FdSet, NCover, PCover,
};
use fd_relation::{Relation, RowId, RowMajor};
use std::sync::Arc;

/// Exact FD discovery state that can be patched in place after row updates.
///
/// Built once (the "cold" run) from a relation, then kept current with
/// [`DeltaEngine::apply_delta`] at a cost proportional to the evidence the
/// changed rows touch rather than to the whole relation.
#[derive(Clone, Debug)]
pub struct DeltaEngine {
    /// Shared with every snapshot handed out by [`DeltaEngine::snapshot`];
    /// a delta clones it only while such a snapshot is still alive.
    relation: Arc<Relation>,
    threads: usize,
    /// `support[S]` = |S| × number of unordered pairs with agree set `S`.
    support: FastHashMap<AttrSet, u64>,
    ncover: NCover,
    pcover: PCover,
    /// Per-column constancy at the time of the last (re)build — compared
    /// against the post-delta relation to detect `∅ ↛ a` evidence flips.
    constant: Vec<bool>,
    stats: DeltaStats,
}

/// What one [`DeltaEngine::apply_delta`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Rows appended by this delta.
    pub rows_inserted: usize,
    /// Rows removed by this delta (after in-batch dedup).
    pub rows_deleted: usize,
    /// Agree sets whose last supporting pair died.
    pub dead_agree_sets: usize,
    /// Agree sets observed for the first time (no prior support).
    pub fresh_agree_sets: usize,
    /// RHS attributes whose cover trees were rebuilt from surviving evidence.
    pub rhs_rebuilt: usize,
    /// Candidate FDs revived by the rebuilds — minimal FDs that dead
    /// evidence had previously invalidated.
    pub candidates_revived: usize,
    /// True when a `delta.apply` fault forced the cold-rebuild fallback.
    pub cold_fallback: bool,
}

/// Lifetime counters across every delta the engine has absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// [`DeltaEngine::apply_delta`] calls, including cold fallbacks.
    pub deltas_applied: usize,
    /// Total rows inserted.
    pub rows_inserted: usize,
    /// Total rows deleted.
    pub rows_deleted: usize,
    /// Total agree sets whose support died.
    pub dead_agree_sets: usize,
    /// Total agree sets first observed by a delta.
    pub fresh_agree_sets: usize,
    /// Total RHS tree rebuilds.
    pub rhs_rebuilt: usize,
    /// Total candidates revived.
    pub candidates_revived: usize,
    /// Deltas that degraded to a cold rebuild (fault injection or caller
    /// request) instead of the incremental path.
    pub cold_fallbacks: usize,
}

impl DeltaStats {
    fn absorb(&mut self, r: &DeltaReport) {
        self.deltas_applied += 1;
        self.rows_inserted += r.rows_inserted;
        self.rows_deleted += r.rows_deleted;
        self.dead_agree_sets += r.dead_agree_sets;
        self.fresh_agree_sets += r.fresh_agree_sets;
        self.rhs_rebuilt += r.rhs_rebuilt;
        self.candidates_revived += r.candidates_revived;
        self.cold_fallbacks += r.cold_fallback as usize;
    }
}

impl DeltaEngine {
    /// Cold build: exhaustive evidence collection on `relation`, producing
    /// the exact minimal cover plus the support bookkeeping deltas need.
    pub fn new(relation: Relation, threads: usize) -> DeltaEngine {
        let threads = threads.max(1);
        let (support, ncover, pcover, constant) = cold_state(&relation, threads);
        DeltaEngine {
            relation: Arc::new(relation),
            threads,
            support,
            ncover,
            pcover,
            constant,
            stats: DeltaStats::default(),
        }
    }

    /// The relation the current cover describes (post any applied deltas).
    pub fn relation(&self) -> &Relation {
        &self.relation
    }

    /// A shared handle on the current relation. Later deltas never mutate
    /// it: they copy the relation first if the handle is still alive.
    pub fn snapshot(&self) -> Arc<Relation> {
        Arc::clone(&self.relation)
    }

    /// The current exact minimal cover.
    pub fn fds(&self) -> FdSet {
        self.pcover.to_fdset()
    }

    /// Lifetime delta counters.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }

    /// Worker threads used for inversion.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Distinct agree sets currently holding evidence.
    pub fn support_keys(&self) -> usize {
        self.support.len()
    }

    /// Applies a row delta (`inserts` appended, `deletes` removed by
    /// pre-delta row id) and incrementally repairs the covers. See the
    /// module docs for the insert/delete asymmetry.
    pub fn apply_delta(&mut self, inserts: &[Vec<u32>], deletes: &[RowId]) -> DeltaReport {
        let mut dels: Vec<RowId> = deletes.to_vec();
        dels.sort_unstable();
        dels.dedup();

        let mut report = DeltaReport {
            rows_inserted: inserts.len(),
            rows_deleted: dels.len(),
            ..DeltaReport::default()
        };
        fd_telemetry::counter!("delta.rows_inserted", inserts.len() as u64);
        fd_telemetry::counter!("delta.rows_deleted", dels.len() as u64);

        // Fault site: a failed allocation mid-delta degrades to the cold
        // path — the structural update still happens, then everything is
        // rebuilt from the new relation. Slower, never wrong.
        if fd_faults::inject!("delta.apply") == Some(fd_faults::Injected::AllocFail) {
            Arc::make_mut(&mut self.relation).apply_delta(inserts, &dels);
            let (support, ncover, pcover, constant) = cold_state(&self.relation, self.threads);
            self.support = support;
            self.ncover = ncover;
            self.pcover = pcover;
            self.constant = constant;
            report.cold_fallback = true;
            fd_telemetry::counter!("delta.candidates_revived", 0);
            self.stats.absorb(&report);
            return report;
        }

        let m = self.relation.n_attrs();

        // ── 1. Delete pass, on the *old* relation: retire every incidence a
        // deleted row participates in. Pair dedup: (deleted, surviving)
        // counts from the deleted side; (deleted, deleted) from the larger
        // id, so each dying pair is retired exactly once.
        let mut dead: Vec<AttrSet> = Vec::new();
        if !dels.is_empty() {
            let rm = self.relation.row_major();
            let mut is_del = vec![false; self.relation.n_rows()];
            for &d in &dels {
                is_del[d as usize] = true;
            }
            let support = &mut self.support;
            for_each_pair_agree(
                &self.relation,
                &rm,
                &dels,
                &|r, u| !is_del[u as usize] || u < r,
                &mut |s| match support.get_mut(&s) {
                    Some(count) => {
                        debug_assert!(*count >= s.len() as u64);
                        *count -= s.len() as u64;
                        if *count == 0 {
                            support.remove(&s);
                            dead.push(s);
                        }
                    }
                    None => debug_assert!(false, "deleted pair's agree set {s:?} not in support"),
                },
            );
        }

        // ── 2. Structural update: compact survivors, append inserts.
        let delta = Arc::make_mut(&mut self.relation).apply_delta(inserts, &dels);

        // ── 3. Insert pass, on the *new* relation: only pairs with an
        // inserted member are new. Dedup: count (new, old) from the new
        // side, (new, new) from the larger id — inserted ids are the tail,
        // so both collapse to `u < r`.
        let mut fresh: FastHashSet<AttrSet> = FastHashSet::default();
        if !delta.inserted.is_empty() {
            let rm = self.relation.row_major();
            let support = &mut self.support;
            for_each_pair_agree(&self.relation, &rm, &delta.inserted, &|r, u| u < r, &mut |s| {
                let count = support.entry(s).or_insert(0);
                if *count == 0 {
                    fresh.insert(s);
                }
                *count += s.len() as u64;
            });
        }

        // ── 4. Constancy flips. `∅ ↛ a` evidence is not pair-supported (a
        // pair with an empty agree set is co-clustered nowhere), so it
        // tracks column constancy directly. Label holes after deletes mean
        // `n_distinct` is only a bound — `is_constant` scans values.
        let new_constant: Vec<bool> =
            (0..m).map(|a| self.relation.is_constant(a as AttrId)).collect();

        // ── 5. Affected RHS: every attribute outside a dead agree set lost
        // a non-FD, and every newly constant column lost its ∅ seed.
        let mut affected = vec![false; m];
        for s in &dead {
            for (a, slot) in affected.iter_mut().enumerate() {
                if !s.contains(a as AttrId) {
                    *slot = true;
                }
            }
        }
        for a in 0..m {
            if new_constant[a] && !self.constant[a] {
                affected[a] = true;
            }
        }

        // ── 6. Rebuild each affected RHS from surviving evidence: the
        // negative-cover tree from the support keys that constrain it, the
        // positive-cover tree by re-inversion from {∅} — generalizing old
        // candidates bottom-up is not enough, the cover is a function of
        // the maximal surviving non-FDs only.
        for a in 0..m {
            if !affected[a] {
                continue;
            }
            let rhs = a as AttrId;
            let mut survivors: Vec<AttrSet> =
                self.support.keys().filter(|s| !s.contains(rhs)).copied().collect();
            survivors.sort_unstable();
            if !new_constant[a] {
                survivors.push(AttrSet::empty());
            }
            self.ncover.rebuild_rhs(rhs, survivors.iter().copied());
            report.candidates_revived += self.pcover.rebuild_rhs(rhs, survivors);
            report.rhs_rebuilt += 1;
        }

        // ── 7. Fold fresh insert evidence into the remaining trees. For an
        // affected RHS the rebuild above already consumed it (fresh keys are
        // support keys), so `add_agree_set_collect` is a no-op there and
        // `pending` only carries non-FDs for untouched trees.
        let mut pending: Vec<Fd> = Vec::new();
        let mut fresh_sorted: Vec<AttrSet> = fresh.into_iter().collect();
        fresh_sorted.sort_unstable();
        for &s in &fresh_sorted {
            self.ncover.add_agree_set_collect(s, &mut pending);
        }
        for a in 0..m {
            if !new_constant[a] && self.constant[a] {
                let seed = Fd::new(AttrSet::empty(), a as AttrId);
                if self.ncover.add(seed) {
                    pending.push(seed);
                }
            }
        }
        self.pcover.invert_batch(&mut pending, self.threads);

        report.dead_agree_sets = dead.len();
        report.fresh_agree_sets = fresh_sorted.len();
        fd_telemetry::counter!("delta.candidates_revived", report.candidates_revived as u64);
        self.constant = new_constant;
        self.stats.absorb(&report);
        report
    }
}

/// Exhaustive evidence collection: the support multiset over all intra-
/// cluster pairs, the canonical negative cover (maximal non-FDs plus the
/// `∅ ↛ a` seed per non-constant column), and its inversion.
fn cold_state(
    relation: &Relation,
    threads: usize,
) -> (FastHashMap<AttrSet, u64>, NCover, PCover, Vec<bool>) {
    let m = relation.n_attrs();
    let mut support: FastHashMap<AttrSet, u64> = FastHashMap::default();
    if relation.n_rows() > 1 {
        let rm = relation.row_major();
        let all: Vec<RowId> = (0..relation.n_rows() as RowId).collect();
        for_each_pair_agree(relation, &rm, &all, &|r, u| u < r, &mut |s| {
            *support.entry(s).or_insert(0) += s.len() as u64;
        });
    }
    let constant: Vec<bool> = (0..m).map(|a| relation.is_constant(a as AttrId)).collect();
    let mut ncover = NCover::new(m);
    for (a, &is_const) in constant.iter().enumerate() {
        if !is_const {
            ncover.add(Fd::new(AttrSet::empty(), a as AttrId));
        }
    }
    let mut keys: Vec<AttrSet> = support.keys().copied().collect();
    keys.sort_unstable();
    for s in keys {
        ncover.add_agree_set(s);
    }
    let pcover = invert_ncover_parallel(&ncover, threads);
    (support, ncover, pcover, constant)
}

/// Calls `f` exactly once per unordered row pair that (a) involves a target
/// row, (b) passes `accept`, and (c) shares at least one column value —
/// with the pair's agree set, computed by the bit-packed row-major kernel.
///
/// Enumeration is per column over label groups restricted to the targets'
/// labels; a pair co-clustered in `k` columns is seen `k` times, and the
/// call is deduplicated to the pair's first agreeing column (`S.first()`).
/// `accept(r, u)` must not depend on the column for that dedup to hold.
fn for_each_pair_agree(
    relation: &Relation,
    rm: &RowMajor,
    targets: &[RowId],
    accept: &dyn Fn(RowId, RowId) -> bool,
    f: &mut dyn FnMut(AttrSet),
) {
    if targets.is_empty() || relation.n_rows() < 2 {
        return;
    }
    let mut wanted: FastHashSet<u32> = FastHashSet::default();
    let mut rows_by: FastHashMap<u32, Vec<RowId>> = FastHashMap::default();
    for a in 0..relation.n_attrs() {
        let a = a as AttrId;
        wanted.clear();
        for &r in targets {
            wanted.insert(relation.label(r, a));
        }
        rows_by.clear();
        for (t, &l) in relation.column(a).iter().enumerate() {
            if wanted.contains(&l) {
                rows_by.entry(l).or_default().push(t as RowId);
            }
        }
        for &r in targets {
            if let Some(mates) = rows_by.get(&relation.label(r, a)) {
                for &u in mates {
                    if u == r || !accept(r, u) {
                        continue;
                    }
                    let s = rm.agree_set(r, u);
                    if s.first() == Some(a) {
                        f(s);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::invert_ncover;
    use fd_relation::synth::patient;

    /// Exhaustive pairwise induction — the ground-truth oracle.
    fn oracle(r: &Relation) -> FdSet {
        let mut nc = NCover::new(r.n_attrs());
        for a in 0..r.n_attrs() as AttrId {
            if !r.is_constant(a) {
                nc.add(Fd::new(AttrSet::empty(), a));
            }
        }
        for t in 0..r.n_rows() as u32 {
            for u in t + 1..r.n_rows() as u32 {
                nc.add_agree_set(r.agree_set(t, u));
            }
        }
        invert_ncover(&nc).to_fdset()
    }

    fn assert_engine_exact(engine: &DeltaEngine) {
        assert_eq!(engine.fds(), oracle(engine.relation()));
        // Byte-identity with a cold engine on the same relation.
        let cold = DeltaEngine::new(engine.relation().clone(), engine.threads());
        assert_eq!(engine.fds(), cold.fds());
        assert_eq!(engine.support, cold.support);
        assert_eq!(engine.constant, cold.constant);
    }

    #[test]
    fn cold_engine_matches_exhaustive_induction() {
        let engine = DeltaEngine::new(patient(), 2);
        assert_eq!(engine.fds(), oracle(engine.relation()));
        assert!(engine.support_keys() > 0);
    }

    #[test]
    fn insert_only_delta_is_exact() {
        let mut engine = DeltaEngine::new(patient(), 1);
        // One duplicate-ish row (all labels existing) and one fresh row.
        let inserts =
            vec![vec![0, 0, 0, 0, 0], vec![9, 5, 3, 2, 4]];
        let report = engine.apply_delta(&inserts, &[]);
        assert_eq!(report.rows_inserted, 2);
        assert_eq!(report.rows_deleted, 0);
        assert_eq!(report.rhs_rebuilt, 0, "inserts never rebuild");
        assert!(!report.cold_fallback);
        assert_eq!(engine.relation().n_rows(), 11);
        assert_engine_exact(&engine);
    }

    #[test]
    fn delete_only_delta_revives_killed_candidates() {
        // x = [0,0,1], y = [0,1,2]: pair (0,1) agrees on x but not y, so
        // x → y is invalidated. Deleting row 1 kills that evidence and the
        // minimal candidate x → y must come back.
        let r = Relation::from_encoded_columns(
            "revive",
            vec!["x".into(), "y".into()],
            vec![vec![0, 0, 1], vec![0, 1, 2]],
        );
        let mut engine = DeltaEngine::new(r, 1);
        assert!(!engine.fds().contains(&Fd::new(AttrSet::single(0), 1)));
        let report = engine.apply_delta(&[], &[1]);
        assert_eq!(report.dead_agree_sets, 1);
        assert_eq!(report.rhs_rebuilt, 1);
        assert_eq!(report.candidates_revived, 1);
        assert!(engine.fds().contains(&Fd::new(AttrSet::single(0), 1)));
        assert_engine_exact(&engine);
    }

    #[test]
    fn delete_can_flip_a_column_to_constant() {
        // Deleting row 3 leaves column a constant: ∅ → a must appear even
        // though no pair-supported evidence changed (the dying pairs had
        // empty agree sets and were never enumerated).
        let r = Relation::from_encoded_columns(
            "flip",
            vec!["a".into(), "b".into()],
            vec![vec![0, 0, 0, 1], vec![0, 1, 2, 3]],
        );
        let mut engine = DeltaEngine::new(r, 1);
        assert!(!engine.fds().contains(&Fd::new(AttrSet::empty(), 0)));
        let report = engine.apply_delta(&[], &[3]);
        assert_eq!(report.dead_agree_sets, 0);
        assert_eq!(report.rhs_rebuilt, 1);
        assert!(engine.fds().contains(&Fd::new(AttrSet::empty(), 0)));
        assert_engine_exact(&engine);
    }

    #[test]
    fn insert_can_flip_a_constant_column_back() {
        // A constant column gains a second value: its ∅ → a collapses to
        // b → a purely through the ∅ ↛ a seed (the new pairs agree on
        // nothing, so the support map never hears about them).
        let r = Relation::from_encoded_columns(
            "unflip",
            vec!["a".into(), "b".into()],
            vec![vec![0, 0, 0], vec![0, 1, 2]],
        );
        let mut engine = DeltaEngine::new(r, 1);
        assert!(engine.fds().contains(&Fd::new(AttrSet::empty(), 0)));
        let report = engine.apply_delta(&[vec![1, 3]], &[]);
        assert_eq!(report.fresh_agree_sets, 0);
        assert!(!engine.fds().contains(&Fd::new(AttrSet::empty(), 0)));
        assert!(engine.fds().contains(&Fd::new(AttrSet::single(1), 0)));
        assert_engine_exact(&engine);
    }

    #[test]
    fn mixed_delta_with_reused_and_fresh_labels_is_exact() {
        let mut engine = DeltaEngine::new(patient(), 2);
        let inserts = vec![
            vec![2, 1, 0, 1, 2], // existing labels only
            vec![9, 9, 9, 0, 9], // mostly fresh labels
            vec![2, 1, 0, 0, 2], // near-duplicate of the first insert
        ];
        let report = engine.apply_delta(&inserts, &[0, 4, 7]);
        assert_eq!(report.rows_inserted, 3);
        assert_eq!(report.rows_deleted, 3);
        assert_engine_exact(&engine);
        // A follow-up delta on the already-patched relation stays exact:
        // deltas compose.
        engine.apply_delta(&[vec![2, 1, 0, 1, 2]], &[2, 5]);
        assert_engine_exact(&engine);
        assert_eq!(engine.stats().deltas_applied, 2);
        assert_eq!(engine.stats().rows_inserted, 4);
        assert_eq!(engine.stats().rows_deleted, 5);
    }

    #[test]
    fn duplicate_delete_ids_are_collapsed() {
        let mut engine = DeltaEngine::new(patient(), 1);
        let report = engine.apply_delta(&[], &[3, 3, 3]);
        assert_eq!(report.rows_deleted, 1);
        assert_eq!(engine.relation().n_rows(), 8);
        assert_engine_exact(&engine);
    }

    #[test]
    fn empty_delta_is_a_no_op() {
        let mut engine = DeltaEngine::new(patient(), 1);
        let before = engine.fds();
        let report = engine.apply_delta(&[], &[]);
        assert_eq!(report, DeltaReport::default());
        assert_eq!(engine.fds(), before);
    }

    #[test]
    fn snapshots_keep_their_version_across_deltas() {
        let mut engine = DeltaEngine::new(patient(), 1);
        let before = engine.snapshot();
        engine.apply_delta(&[vec![0, 1, 2, 1, 4]], &[6]);
        // The live snapshot forced a copy: it still shows the old rows.
        assert_eq!(*before, patient());
        assert_eq!(engine.relation().n_rows(), patient().n_rows());
        assert_ne!(*engine.relation(), patient());
        assert_engine_exact(&engine);
    }

    #[test]
    fn deleting_everything_leaves_the_vacuous_cover() {
        let r = Relation::from_encoded_columns(
            "drain",
            vec!["a".into(), "b".into()],
            vec![vec![0, 1, 0], vec![0, 1, 2]],
        );
        let mut engine = DeltaEngine::new(r, 1);
        engine.apply_delta(&[], &[0, 1, 2]);
        assert_eq!(engine.relation().n_rows(), 0);
        assert_eq!(engine.support_keys(), 0);
        // Vacuously constant columns: ∅ → a for every attribute.
        assert_eq!(engine.fds().len(), 2);
        assert!(engine.fds().iter().all(|fd| fd.lhs.is_empty()));
        assert_engine_exact(&engine);
    }
}
