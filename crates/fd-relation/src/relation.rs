//! Dictionary-encoded relational instances.
//!
//! The preprocessing module of EulerFD (Section IV-B) replaces raw values of
//! every attribute with dense numerical labels — two cells compare equal iff
//! their labels are equal, which is all any FD algorithm ever asks of the
//! data. [`Relation`] stores exactly that encoded form, column-major
//! (`Vec<u32>` per attribute), which is both the paper's Table II
//! representation and the cache-friendly layout for the pairwise row
//! comparisons that dominate discovery time.

use crate::delta::{ColumnDictionaries, RowDelta};
use fd_core::{AttrId, AttrSet, FastHashMap, FastHashSet, ATTR_WORDS, MAX_ATTRS};
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Identifier of a row (tuple) within a relation.
pub type RowId = u32;

/// A dictionary-encoded relational instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Relation {
    name: String,
    column_names: Vec<String>,
    /// Column-major labels: `columns[a][t]` is the label of tuple `t` on
    /// attribute `a`. Labels are dense per column: `0..n_distinct(a)`.
    columns: Vec<Vec<u32>>,
    /// Number of distinct labels per column.
    distinct: Vec<u32>,
    n_rows: usize,
}

impl Relation {
    /// Builds a relation from encoded columns. Each column must already use
    /// dense labels `0..k`; use [`RelationBuilder`] to encode raw values.
    ///
    /// # Panics
    /// Panics if columns have unequal lengths, if the schema exceeds
    /// [`MAX_ATTRS`] attributes, or if names and columns disagree in count.
    pub fn from_encoded_columns(
        name: impl Into<String>,
        column_names: Vec<String>,
        columns: Vec<Vec<u32>>,
    ) -> Self {
        assert_eq!(column_names.len(), columns.len(), "one name per column required");
        assert!(columns.len() <= MAX_ATTRS, "schema exceeds {MAX_ATTRS} attributes");
        let n_rows = columns.first().map_or(0, |c| c.len());
        assert!(
            columns.iter().all(|c| c.len() == n_rows),
            "all columns must have the same number of rows"
        );
        assert!(n_rows <= u32::MAX as usize, "row count exceeds u32 range");
        let distinct = columns
            .iter()
            .map(|c| c.iter().max().map_or(0, |&m| m + 1))
            .collect();
        Relation { name: name.into(), column_names, columns, distinct, n_rows }
    }

    /// Dataset name (used in reports and benchmark tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the relation (generators use this when deriving variants).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Column (attribute) names, indexed by [`AttrId`].
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// Number of attributes.
    pub fn n_attrs(&self) -> usize {
        self.columns.len()
    }

    /// Number of tuples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of distinct values in column `a`.
    ///
    /// After [`Relation::apply_delta`] deletes this is only an **upper
    /// bound** on the labels present (a delete can remove the last row of a
    /// label without compacting the label space). That bound is exactly what
    /// [`crate::Partition::of_column`] needs for sizing, but it must never
    /// drive semantic decisions — use [`Relation::n_distinct_exact`] or
    /// [`Relation::is_constant`] for those.
    pub fn n_distinct(&self, a: AttrId) -> usize {
        self.distinct[a as usize] as usize
    }

    /// Exact number of distinct labels *present* in column `a`, counted by a
    /// value scan. Agrees with [`Relation::n_distinct`] on freshly encoded
    /// relations and stays correct after [`Relation::apply_delta`], where the
    /// plain count is only a label bound. O(n) time, O(bound) scratch.
    pub fn n_distinct_exact(&self, a: AttrId) -> usize {
        let bound = self.n_distinct(a);
        let mut seen = vec![false; bound];
        let mut count = 0usize;
        for &label in self.column(a) {
            let s = &mut seen[label as usize];
            if !*s {
                *s = true;
                count += 1;
            }
        }
        count
    }

    /// The encoded labels of column `a`.
    #[inline]
    pub fn column(&self, a: AttrId) -> &[u32] {
        &self.columns[a as usize]
    }

    /// The label of tuple `t` on attribute `a`.
    #[inline]
    pub fn label(&self, t: RowId, a: AttrId) -> u32 {
        self.columns[a as usize][t as usize]
    }

    /// The agree set of tuples `t` and `u`: all attributes on which they
    /// share a label. A sampled pair's agree set `S` yields the non-FDs
    /// `S ↛ a` for every `a ∉ S` (Section IV-C).
    pub fn agree_set(&self, t: RowId, u: RowId) -> AttrSet {
        let mut agree = AttrSet::empty();
        for (a, col) in self.columns.iter().enumerate() {
            if col[t as usize] == col[u as usize] {
                agree.insert(a as AttrId);
            }
        }
        agree
    }

    /// Builds the row-major packed mirror of this relation (see
    /// [`RowMajor`]). Costs one pass over the data and doubles the encoded
    /// footprint; pays for itself as soon as tuple pairs are compared in
    /// bulk.
    pub fn row_major(&self) -> RowMajor {
        let width = self.n_attrs();
        let mut data = vec![0u32; width * self.n_rows];
        for (a, col) in self.columns.iter().enumerate() {
            for (t, &label) in col.iter().enumerate() {
                data[t * width + a] = label;
            }
        }
        RowMajor { data, width, n_rows: self.n_rows }
    }

    /// True if the FD `lhs → rhs` holds on the full instance (Definition 1),
    /// verified with a single hash pass over all tuples.
    pub fn fd_holds(&self, lhs: &AttrSet, rhs: AttrId) -> bool {
        let rhs_col = self.column(rhs);
        if lhs.is_empty() {
            // ∅ → A holds iff column A is constant.
            return rhs_col.windows(2).all(|w| w[0] == w[1]);
        }
        // Unpack the LHS onto the stack: `fd_holds` runs in validation tight
        // loops, and a per-call heap Vec shows up there.
        let mut lhs_buf = [0 as AttrId; MAX_ATTRS];
        let mut n_lhs = 0;
        for a in lhs.iter() {
            lhs_buf[n_lhs] = a;
            n_lhs += 1;
        }
        let lhs_attrs = &lhs_buf[..n_lhs];
        let mut seen: FastHashMap<Vec<u32>, u32> = FastHashMap::default();
        seen.reserve(self.n_rows);
        let mut key = Vec::with_capacity(lhs_attrs.len());
        for (t, &rhs_val) in rhs_col.iter().enumerate() {
            key.clear();
            key.extend(lhs_attrs.iter().map(|&a| self.columns[a as usize][t]));
            match seen.entry(key.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != rhs_val {
                        return false;
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(rhs_val);
                }
            }
        }
        true
    }

    /// Restricts the relation to its first `n` rows (used by the row
    /// scalability sweeps, Figures 6–7).
    pub fn head(&self, n: usize) -> Relation {
        let n = n.min(self.n_rows);
        let columns = self.columns.iter().map(|c| c[..n].to_vec()).collect();
        let mut r = Relation::from_encoded_columns(
            format!("{}[rows={n}]", self.name),
            self.column_names.clone(),
            columns,
        );
        r.reencode();
        r
    }

    /// Restricts the relation to its first `k` columns (used by the column
    /// scalability sweeps, Figures 8–9).
    pub fn project_prefix(&self, k: usize) -> Relation {
        let k = k.min(self.n_attrs());
        Relation::from_encoded_columns(
            format!("{}[cols={k}]", self.name),
            self.column_names[..k].to_vec(),
            self.columns[..k].to_vec(),
        )
    }

    /// True when column `a` holds at most one distinct value. Unlike
    /// `n_distinct(a) <= 1`, this stays correct on delta-mutated relations,
    /// where `n_distinct` is only an upper bound on the labels present (a
    /// delete can remove the last row of a label without shrinking the
    /// bound). Early-exits on the first disagreeing adjacent pair.
    pub fn is_constant(&self, a: AttrId) -> bool {
        if self.n_distinct(a) <= 1 {
            return true;
        }
        self.column(a).windows(2).all(|w| w[0] == w[1])
    }

    /// Applies one batch of row deletes and inserts in place and describes
    /// the outcome as a [`RowDelta`].
    ///
    /// Deletes go first: surviving rows are compacted to the front of every
    /// column, keeping their relative order. Inserted rows (already encoded
    /// — labels at or past the current `n_distinct` bound denote values
    /// unseen in the base dictionary) are then appended in batch order.
    /// After the batch, `n_distinct(a)` is recomputed as
    /// `max present label + 1`: still only an upper bound on the number of
    /// labels present (deletes can leave holes), which is exactly the
    /// contract [`crate::Partition::of_column`] needs. Use
    /// [`Relation::is_constant`] rather than `n_distinct` to test constancy
    /// after a delta.
    ///
    /// # Panics
    /// Panics if a deleted id is out of range or an inserted row's width
    /// differs from the schema width.
    pub fn apply_delta(&mut self, inserts: &[Vec<u32>], deletes: &[RowId]) -> RowDelta {
        let old_n_rows = self.n_rows;
        let n_attrs = self.n_attrs();
        for row in inserts {
            assert_eq!(row.len(), n_attrs, "inserted row width mismatch");
        }
        let mut deleted: Vec<RowId> = deletes.to_vec();
        deleted.sort_unstable();
        deleted.dedup();
        if let Some(&last) = deleted.last() {
            assert!((last as usize) < old_n_rows, "deleted row id {last} out of range");
        }
        // Compact survivors to the front of every column.
        if !deleted.is_empty() {
            for col in &mut self.columns {
                let mut del = deleted.iter().peekable();
                let mut write = 0usize;
                for t in 0..old_n_rows {
                    if del.peek() == Some(&&(t as RowId)) {
                        del.next();
                        continue;
                    }
                    col[write] = col[t];
                    write += 1;
                }
                col.truncate(write);
            }
            self.n_rows = old_n_rows - deleted.len();
        }
        // Append inserts in batch order.
        let base_rows = self.n_rows;
        for row in inserts {
            for (col, &label) in self.columns.iter_mut().zip(row) {
                col.push(label);
            }
        }
        self.n_rows = base_rows + inserts.len();
        assert!(self.n_rows <= u32::MAX as usize, "row count exceeds u32 range");
        // Tighten the distinct bound to max present label + 1.
        for (col, distinct) in self.columns.iter().zip(self.distinct.iter_mut()) {
            *distinct = col.iter().max().map_or(0, |&m| m + 1);
        }
        RowDelta {
            old_n_rows,
            new_n_rows: self.n_rows,
            inserted: (base_rows as RowId..self.n_rows as RowId).collect(),
            deleted,
        }
    }

    /// Re-encodes every column to dense labels (dropping labels that no
    /// longer occur after a row restriction).
    fn reencode(&mut self) {
        for (col, distinct) in self.columns.iter_mut().zip(self.distinct.iter_mut()) {
            let mut remap: FastHashMap<u32, u32> = FastHashMap::default();
            for v in col.iter_mut() {
                let next = remap.len() as u32;
                let label = *remap.entry(*v).or_insert(next);
                *v = label;
            }
            *distinct = remap.len() as u32;
        }
    }
}

/// Per-batch counters of the pair-comparison kernel. Each worker thread
/// accumulates its own copy on the stack — no shared atomics on the hot
/// path — and the copies are summed at the `thread::scope` join barrier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Tuple pairs whose agree sets were computed.
    pub pairs_compared: u64,
    /// Agree sets that survived the worker-side novelty filter (not yet in
    /// the caller's seen-set, first occurrence within the worker's chunk).
    pub candidates: u64,
    /// Worker threads that participated (1 = the batch ran inline).
    pub workers: usize,
}

impl std::ops::AddAssign for BatchStats {
    fn add_assign(&mut self, rhs: Self) {
        self.pairs_compared += rhs.pairs_compared;
        self.candidates += rhs.candidates;
        self.workers += rhs.workers;
    }
}

/// One cluster's sample in a compare round: the window pairs
/// `(rows[i], rows[i + window - 1])` for every position `i` the window fits.
#[derive(Clone, Copy, Debug)]
pub struct WindowJob<'a> {
    /// The cluster's rows, in sampling order.
    pub rows: &'a [RowId],
    /// The window size (≥ 2): the distance between a pair's rows plus one.
    pub window: usize,
}

impl WindowJob<'_> {
    /// Number of window positions, i.e. pairs this job compares.
    pub fn pairs(&self) -> usize {
        (self.rows.len() + 1).saturating_sub(self.window)
    }
}

/// A row-major packed mirror of a [`Relation`].
///
/// The column-major master layout is ideal for per-attribute passes
/// (partitioning, verification) but makes `agree_set` a strided gather: one
/// cache line per attribute per tuple. This mirror packs each tuple's labels
/// contiguously (`data[t * width ..][..width]`), so an agree set is a linear
/// scan of two short `u32` slices — the layout the sampling loop, which
/// dominates EulerFD's runtime, actually wants. Batched comparison fans the
/// pair list out across scoped worker threads; results always come back in
/// pair order, so downstream folds are deterministic for any thread count.
#[derive(Clone, Debug)]
pub struct RowMajor {
    /// `data[t * width + a]` is the label of tuple `t` on attribute `a`.
    data: Vec<u32>,
    width: usize,
    n_rows: usize,
}

impl RowMajor {
    /// Number of attributes per row.
    pub fn n_attrs(&self) -> usize {
        self.width
    }

    /// Number of tuples.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The packed labels of tuple `t`.
    #[inline]
    pub fn row(&self, t: RowId) -> &[u32] {
        let start = t as usize * self.width;
        &self.data[start..start + self.width]
    }

    /// The agree set of tuples `t` and `u`, computed by the bit-packed
    /// word-wide kernel over two contiguous slices. Matches
    /// [`Relation::agree_set`] (and the scalar reference [`agree_of_rows`])
    /// exactly.
    #[inline]
    pub fn agree_set(&self, t: RowId, u: RowId) -> AttrSet {
        packed_agree_of_rows(self.row(t), self.row(u))
    }

    /// Agree sets of every pair in `pairs`, in pair order, computed on up to
    /// `threads` scoped worker threads with work-stealing chunk claiming.
    pub fn agree_sets_batch(&self, pairs: &[(RowId, RowId)], threads: usize) -> Vec<AttrSet> {
        let workers = self.plan_workers(pairs.len(), threads);
        if workers <= 1 {
            // Single-threaded path builds its output directly — no upfront
            // zero-fill of a vec that would be overwritten slot by slot.
            return pairs.iter().map(|&(t, u)| self.agree_set(t, u)).collect();
        }
        // Parallel path: one allocation, handed out to workers as disjoint
        // chunk slices. Slots are pre-assigned by chunk index, so results
        // land in pair order no matter which worker claims which chunk.
        let mut out = vec![AttrSet::empty(); pairs.len()];
        let n_chunks =
            fd_core::parallel::steal_chunk_count(pairs.len(), workers, MIN_PAIRS_PER_CHUNK);
        let chunk = pairs.len().div_ceil(n_chunks);
        type PairSlot<'s> = Mutex<(&'s [(RowId, RowId)], &'s mut [AttrSet])>;
        let slots: Vec<PairSlot<'_>> = pairs
            .chunks(chunk)
            .zip(out.chunks_mut(chunk))
            .map(Mutex::new)
            .collect();
        fd_core::parallel::fan_out_stealing("pair_compare", slots.len(), workers, |i| {
            let mut slot = slots[i].lock().unwrap_or_else(|e| e.into_inner());
            let (pair_chunk, out_chunk) = &mut *slot;
            for (dst, &(t, u)) in out_chunk.iter_mut().zip(pair_chunk.iter()) {
                *dst = self.agree_set(t, u);
            }
        });
        out
    }

    /// The comparison kernel of the sampling module: one **compare round**
    /// over several clusters' window samples. For each job it computes the
    /// agree set of every window pair and keeps only *novel* ones — not
    /// present in `seen` (a read-only snapshot of the caller's dedup set)
    /// and not repeated earlier in the same job piece.
    ///
    /// Fills `out` with one candidate list per job, in pair order (`out` is
    /// caller-owned scratch, so a round allocates only for the candidates
    /// it finds). Pairs are planned
    /// inside the workers straight from the jobs' row slices, so no pair
    /// list is ever materialized. Small jobs are grouped into chunks of at
    /// least `MIN_PAIRS_PER_CHUNK` pairs; a job larger than one chunk is
    /// split into position ranges, each deduplicated on its own, so a set
    /// straddling two ranges may appear once per range. Jobs are never
    /// deduplicated against each other: each job's list is folded on its
    /// own, possibly long after a later job's. The caller's sequential fold
    /// re-checks its seen-set, which collapses straddle duplicates and makes
    /// the folded outcome identical for every thread count.
    pub fn novel_agree_sets_round(
        &self,
        jobs: &[WindowJob<'_>],
        seen: &FastHashSet<AttrSet>,
        threads: usize,
        out: &mut Vec<Vec<AttrSet>>,
    ) -> BatchStats {
        let total: usize = jobs.iter().map(WindowJob::pairs).sum();
        let workers = self.plan_workers(total, threads);
        out.clear();
        if workers <= 1 {
            let mut local = FastHashSet::default();
            out.extend(jobs.iter().map(|job| self.novel_range(job, 0..job.pairs(), seen, &mut local)));
            let candidates = out.iter().map(|c| c.len() as u64).sum();
            return BatchStats { pairs_compared: total as u64, candidates, workers: 1 };
        }
        // Cut the round into chunks of about `chunk` pairs. A piece is one
        // job's position range inside one chunk; `chunk_ends[c]` is the
        // piece index just past chunk `c`.
        let n_chunks = fd_core::parallel::steal_chunk_count(total, workers, MIN_PAIRS_PER_CHUNK);
        let chunk = total.div_ceil(n_chunks);
        let mut pieces: Vec<(usize, Range<usize>)> = Vec::new();
        let mut chunk_ends: Vec<usize> = Vec::new();
        let mut room = chunk;
        for (j, job) in jobs.iter().enumerate() {
            let mut start = 0;
            let pairs = job.pairs();
            while start < pairs {
                let end = pairs.min(start + room);
                pieces.push((j, start..end));
                room -= end - start;
                start = end;
                if room == 0 {
                    chunk_ends.push(pieces.len());
                    room = chunk;
                }
            }
        }
        if chunk_ends.last() != Some(&pieces.len()) {
            chunk_ends.push(pieces.len());
        }
        // Each piece owns a pre-assigned output slot, so results are
        // assembled in job and position order no matter which worker
        // claimed which chunk.
        let slots: Vec<OnceLock<Vec<AttrSet>>> = pieces.iter().map(|_| OnceLock::new()).collect();
        let steal =
            fd_core::parallel::fan_out_stealing("pair_compare", chunk_ends.len(), workers, |c| {
                let first = if c == 0 { 0 } else { chunk_ends[c - 1] };
                let mut local = FastHashSet::default();
                for p in first..chunk_ends[c] {
                    let (j, range) = &pieces[p];
                    let novel = self.novel_range(&jobs[*j], range.clone(), seen, &mut local);
                    let _ = slots[p].set(novel);
                }
            });
        out.resize_with(jobs.len(), Vec::new);
        let mut candidates = 0u64;
        for ((j, _), slot) in pieces.iter().zip(slots) {
            let novel = slot.into_inner().unwrap_or_default();
            candidates += novel.len() as u64;
            out[*j].extend(novel);
        }
        BatchStats { pairs_compared: total as u64, candidates, workers: steal.workers }
    }

    /// The novel agree sets of one job's window positions `range`, first
    /// occurrences only. `local` is scratch, cleared on entry.
    fn novel_range(
        &self,
        job: &WindowJob<'_>,
        range: Range<usize>,
        seen: &FastHashSet<AttrSet>,
        local: &mut FastHashSet<AttrSet>,
    ) -> Vec<AttrSet> {
        local.clear();
        let far = job.window - 1;
        let mut out = Vec::new();
        for i in range {
            let agree = self.agree_set(job.rows[i], job.rows[i + far]);
            if !seen.contains(&agree) && local.insert(agree) {
                out.push(agree);
            }
        }
        out
    }

    /// Number of workers a batch of `pairs` merits under `threads`, per the
    /// shared adaptive policy. The cost hint is the approximate per-item
    /// cost in u32-compare-equivalent units: one pair costs one label
    /// comparison per attribute, so `width` is the hint (see the unit table
    /// in `fd_core::parallel`).
    fn plan_workers(&self, pairs: usize, threads: usize) -> usize {
        fd_core::parallel::decide_at("pair_compare", pairs, self.width as u64, threads)
    }
}

/// Fewest pairs worth a claimable chunk of their own: below this, the
/// atomic-cursor claim round-trip and the chunk's dedup set rival the
/// comparison work itself.
const MIN_PAIRS_PER_CHUNK: usize = 2048;

/// Linear-scan agree set of two packed rows — the scalar reference kernel.
///
/// [`packed_agree_of_rows`] is the production kernel; this per-attribute
/// loop stays as the independently-obvious implementation the property
/// tests compare it against.
#[inline]
pub fn agree_of_rows(a: &[u32], b: &[u32]) -> AttrSet {
    let mut agree = AttrSet::empty();
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x == y {
            agree.insert(i as AttrId);
        }
    }
    agree
}

/// Bit-packed agree set of two packed rows.
///
/// Instead of one branch + bitmap insert per attribute, equality results are
/// built branchlessly eight attributes at a time into a `u64` lane fragment,
/// then OR-shifted into the output word `idx / 64` at offset `idx % 64`
/// (bit *i* of word *w* is attribute `w*64 + i`, exactly [`AttrSet`]'s
/// layout, so the words become the set with no per-bit inserts). The 8-wide
/// unroll compiles to straight-line compare/mask code the vectorizer can
/// chew on; a sub-8 tail falls back to the per-attribute path.
///
/// Equivalent to [`agree_of_rows`] for every input (property-tested across
/// widths spanning the 64- and 128-bit lane boundaries).
#[inline]
pub fn packed_agree_of_rows(a: &[u32], b: &[u32]) -> AttrSet {
    let mut words = [0u64; ATTR_WORDS];
    let mut ia = a.chunks_exact(8);
    let mut ib = b.chunks_exact(8);
    let mut idx = 0usize;
    for (ca, cb) in (&mut ia).zip(&mut ib) {
        let mut bits = (ca[0] == cb[0]) as u64;
        bits |= ((ca[1] == cb[1]) as u64) << 1;
        bits |= ((ca[2] == cb[2]) as u64) << 2;
        bits |= ((ca[3] == cb[3]) as u64) << 3;
        bits |= ((ca[4] == cb[4]) as u64) << 4;
        bits |= ((ca[5] == cb[5]) as u64) << 5;
        bits |= ((ca[6] == cb[6]) as u64) << 6;
        bits |= ((ca[7] == cb[7]) as u64) << 7;
        // idx is always a multiple of 8, so an 8-bit fragment never
        // straddles a word boundary.
        words[idx >> 6] |= bits << (idx & 63);
        idx += 8;
    }
    for (x, y) in ia.remainder().iter().zip(ib.remainder()) {
        if x == y {
            words[idx >> 6] |= 1u64 << (idx & 63);
        }
        idx += 1;
    }
    AttrSet::from_words(words)
}

/// How missing values are labeled by [`RelationBuilder::push_nullable_row`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NullLabeling {
    /// All nulls of a column share one label (`null = null`).
    #[default]
    Shared,
    /// Every null gets a fresh label (`null ≠ null`), so no pair of tuples
    /// ever agrees on a missing value.
    Distinct,
}

/// Incrementally dictionary-encodes raw string rows into a [`Relation`].
#[derive(Debug)]
pub struct RelationBuilder {
    name: String,
    column_names: Vec<String>,
    dictionaries: ColumnDictionaries,
    columns: Vec<Vec<u32>>,
}

impl RelationBuilder {
    /// Starts a relation with the given column names.
    pub fn new(name: impl Into<String>, column_names: Vec<String>) -> Self {
        let n = column_names.len();
        assert!(n <= MAX_ATTRS, "schema exceeds {MAX_ATTRS} attributes");
        RelationBuilder {
            name: name.into(),
            column_names,
            dictionaries: ColumnDictionaries::with_columns(n),
            columns: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Appends one row of raw values.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn push_row<S: AsRef<str>>(&mut self, row: &[S]) {
        assert_eq!(row.len(), self.column_names.len(), "row width mismatch");
        for (a, value) in row.iter().enumerate() {
            self.push_cell(a, Some(value.as_ref()), NullLabeling::Shared);
        }
    }

    /// Appends one row where `None` marks a missing value, labeled per
    /// `labeling`.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn push_nullable_row(&mut self, row: &[Option<&str>], labeling: NullLabeling) {
        assert_eq!(row.len(), self.column_names.len(), "row width mismatch");
        for (a, &value) in row.iter().enumerate() {
            self.push_cell(a, value, labeling);
        }
    }

    /// Appends one cell to column `a` (`None` = missing, labeled per
    /// `labeling`). A row is complete once every column got its cell; the
    /// CSV reader streams cells this way so it never builds a row vector.
    pub(crate) fn push_cell(&mut self, a: usize, value: Option<&str>, labeling: NullLabeling) {
        let label = self.dictionaries.encode_cell(a, value, labeling);
        self.columns[a].push(label);
    }

    /// Number of rows appended so far.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// Finishes encoding.
    pub fn finish(self) -> Relation {
        Relation::from_encoded_columns(self.name, self.column_names, self.columns)
    }

    /// Finishes encoding, also handing back the per-column dictionaries so
    /// later delta rows can be encoded consistently with the base table
    /// (see [`ColumnDictionaries`]).
    pub fn finish_with_dictionaries(self) -> (Relation, ColumnDictionaries) {
        let relation =
            Relation::from_encoded_columns(self.name, self.column_names, self.columns);
        (relation, self.dictionaries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::patient;

    #[test]
    fn builder_assigns_dense_labels_per_column() {
        let mut b = RelationBuilder::new("t", vec!["x".into(), "y".into()]);
        b.push_row(&["a", "p"]);
        b.push_row(&["b", "p"]);
        b.push_row(&["a", "q"]);
        let r = b.finish();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(r.column(0), &[0, 1, 0]);
        assert_eq!(r.column(1), &[0, 0, 1]);
        assert_eq!(r.n_distinct(0), 2);
        assert_eq!(r.n_distinct(1), 2);
    }

    #[test]
    fn patient_encoding_matches_table_2() {
        // Table II of the paper: the patient data after preprocessing.
        let r = patient();
        assert_eq!(r.n_rows(), 9);
        assert_eq!(r.n_attrs(), 5);
        // Age column (attribute 1): 1,2,3,4,2,4,2,5,6 → zero-based labels.
        assert_eq!(r.column(1), &[0, 1, 2, 3, 1, 3, 1, 4, 5]);
        // Gender column (attribute 3): 1,2,1,1,1,1,1,2,3 → zero-based.
        assert_eq!(r.column(3), &[0, 1, 0, 0, 0, 0, 0, 1, 2]);
    }

    #[test]
    fn agree_sets_follow_example_1() {
        let r = patient();
        // t2 and t8 agree exactly on Gender (G ↛ M comes from them).
        let agree = r.agree_set(1, 7);
        assert_eq!(agree, AttrSet::single(3));
        // t2 and t7 agree on Age and Medicine (AB → M example pair).
        let agree = r.agree_set(1, 6);
        assert_eq!(agree, AttrSet::from_attrs([1u16, 2, 4]));
    }

    #[test]
    fn fd_holds_verifies_example_1() {
        let r = patient();
        // AB → M holds (Example 1). Attribute ids: N=0,A=1,B=2,G=3,M=4.
        assert!(r.fd_holds(&AttrSet::from_attrs([1u16, 2]), 4));
        // N → B holds vacuously (Name is a key).
        assert!(r.fd_holds(&AttrSet::single(0), 2));
        // G ↛ M (t2 vs t8).
        assert!(!r.fd_holds(&AttrSet::single(3), 4));
        // ∅ → A only for constant columns; none here.
        assert!(!r.fd_holds(&AttrSet::empty(), 3));
    }

    #[test]
    fn head_restricts_and_reencodes() {
        let r = patient();
        let h = r.head(3);
        assert_eq!(h.n_rows(), 3);
        assert_eq!(h.n_attrs(), 5);
        // After restriction Gender has two distinct values (F, M).
        assert_eq!(h.n_distinct(3), 2);
        // Oversized head is the identity on rows.
        assert_eq!(r.head(100).n_rows(), 9);
    }

    #[test]
    fn project_prefix_keeps_leading_columns() {
        let r = patient();
        let p = r.project_prefix(2);
        assert_eq!(p.n_attrs(), 2);
        assert_eq!(p.column_names(), &["Name".to_string(), "Age".to_string()]);
        assert_eq!(p.column(1), r.column(1));
    }

    #[test]
    #[should_panic]
    fn ragged_columns_are_rejected() {
        let _ = Relation::from_encoded_columns(
            "bad",
            vec!["a".into(), "b".into()],
            vec![vec![0, 1], vec![0]],
        );
    }

    #[test]
    fn packed_kernel_matches_scalar_on_lane_boundaries() {
        // Widths straddling the 8-wide unroll tail and the 64/128-bit word
        // boundaries; labels chosen so some lanes agree and some do not.
        for width in [1usize, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200] {
            let a: Vec<u32> = (0..width as u32).collect();
            let b: Vec<u32> = (0..width as u32).map(|i| if i % 3 == 0 { i } else { i + 1 }).collect();
            assert_eq!(packed_agree_of_rows(&a, &b), agree_of_rows(&a, &b), "width {width}");
        }
    }

    #[test]
    fn row_major_agree_set_matches_column_major() {
        let r = patient();
        let rm = r.row_major();
        for t in 0..r.n_rows() as RowId {
            for u in 0..r.n_rows() as RowId {
                assert_eq!(rm.agree_set(t, u), r.agree_set(t, u));
            }
        }
    }

    #[test]
    fn apply_delta_compacts_deletes_and_appends_inserts() {
        let mut r = Relation::from_encoded_columns(
            "d",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 2, 1], vec![0, 0, 1, 1]],
        );
        let delta = r.apply_delta(&[vec![1, 2], vec![5, 0]], &[0, 2]);
        // Survivors (rows 1 and 3) compact to the front, inserts append.
        assert_eq!(r.column(0), &[1, 1, 1, 5]);
        assert_eq!(r.column(1), &[0, 1, 2, 0]);
        assert_eq!(r.n_rows(), 4);
        assert_eq!(delta.old_n_rows, 4);
        assert_eq!(delta.new_n_rows, 4);
        assert_eq!(delta.deleted, vec![0, 2]);
        assert_eq!(delta.inserted, vec![2, 3]);
        // distinct stays a valid bound: max present label + 1.
        assert_eq!(r.n_distinct(0), 6);
        assert_eq!(r.n_distinct(1), 3);
    }

    #[test]
    fn is_constant_survives_delta_label_holes() {
        let mut r = Relation::from_encoded_columns(
            "c",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 1], vec![0, 1, 2]],
        );
        assert!(!r.is_constant(0));
        let _ = r.apply_delta(&[], &[0]);
        // Column x now holds only label 1, but the distinct bound stays 2.
        assert!(r.n_distinct(0) > 1);
        assert!(r.is_constant(0));
        assert!(!r.is_constant(1));
        // Empty relation: every column is vacuously constant.
        let _ = r.apply_delta(&[], &[0, 1]);
        assert!(r.is_constant(1));
    }

    #[test]
    fn n_distinct_exact_sees_through_delta_label_holes() {
        let mut r = Relation::from_encoded_columns(
            "c",
            vec!["x".into(), "y".into()],
            vec![vec![0, 1, 1, 2], vec![0, 1, 2, 3]],
        );
        assert_eq!(r.n_distinct_exact(0), 3);
        assert_eq!(r.n_distinct_exact(0), r.n_distinct(0));
        // Delete rows 0 and 3: column x keeps only label 1, so the bound is
        // recomputed as max present label + 1 = 2 — still above the true
        // count of 1.
        let _ = r.apply_delta(&[], &[0, 3]);
        assert!(r.n_distinct(0) > 1, "stale bound overshoots");
        assert_eq!(r.n_distinct_exact(0), 1, "exact count sees the hole");
        assert!(r.is_constant(0));
        // Empty relation: zero distinct values everywhere.
        let _ = r.apply_delta(&[], &[0, 1]);
        assert_eq!(r.n_distinct_exact(0), 0);
        assert_eq!(r.n_distinct_exact(1), 0);
    }

    #[test]
    fn constant_column_fd_holds_from_empty_lhs() {
        let r = Relation::from_encoded_columns(
            "c",
            vec!["k".into(), "c".into()],
            vec![vec![0, 1, 2], vec![0, 0, 0]],
        );
        assert!(r.fd_holds(&AttrSet::empty(), 1));
        assert!(!r.fd_holds(&AttrSet::empty(), 0));
    }
}
