//! Row-delta descriptors for incremental maintenance.
//!
//! Batch discovery treats the relation as immutable; a long-lived service
//! over a mutating table instead applies small insert/delete batches and
//! wants the FD set repaired, not recomputed. [`Relation::apply_delta`]
//! (in [`crate::relation`]) mutates the encoded columns in place and
//! returns a [`RowDelta`] — a record of which row ids appeared and which
//! disappeared. The incremental engine (`core::incremental`) reads the id
//! lists to scope its pair enumeration instead of re-deriving them.
//!
//! [`ColumnDictionaries`] carries the string→label maps of a
//! [`crate::RelationBuilder`] past `finish()`, so raw delta rows (e.g. from
//! `fdtool --delta-csv`) can be encoded consistently with the base table:
//! a value seen before maps to its old label, an unseen value gets a fresh
//! one.
//!
//! [`Relation::apply_delta`]: crate::Relation::apply_delta

use crate::dictionary::Dictionary;
use crate::relation::{NullLabeling, RowId};

/// The outcome of one [`Relation::apply_delta`] batch: which rows appeared
/// and disappeared.
///
/// Deletes are applied before inserts; surviving rows are compacted to the
/// front (keeping their relative order), inserted rows are appended after
/// them.
///
/// [`Relation::apply_delta`]: crate::Relation::apply_delta
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowDelta {
    /// Row count before the batch.
    pub old_n_rows: usize,
    /// Row count after the batch.
    pub new_n_rows: usize,
    /// Deleted row ids in the *pre-delta* numbering, sorted and deduplicated.
    pub deleted: Vec<RowId>,
    /// Inserted row ids in the *post-delta* numbering: the contiguous tail
    /// `new_n_rows - inserts.len() .. new_n_rows`, ascending.
    pub inserted: Vec<RowId>,
}

/// The per-column string→label dictionaries of a finished
/// [`crate::RelationBuilder`], kept alive so later raw rows encode
/// consistently with the base table.
#[derive(Clone, Debug)]
pub struct ColumnDictionaries {
    dictionaries: Vec<Dictionary>,
    shared_null: Vec<Option<u32>>,
    next_label: Vec<u32>,
}

impl ColumnDictionaries {
    /// Empty dictionaries for an `n`-column schema.
    pub(crate) fn with_columns(n: usize) -> Self {
        ColumnDictionaries {
            dictionaries: (0..n).map(|_| Dictionary::default()).collect(),
            shared_null: vec![None; n],
            next_label: vec![0; n],
        }
    }

    /// Number of columns the dictionaries cover.
    pub fn n_attrs(&self) -> usize {
        self.dictionaries.len()
    }

    /// Encodes one raw row, allocating fresh labels for unseen values.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn encode_row<S: AsRef<str>>(&mut self, row: &[S]) -> Vec<u32> {
        assert_eq!(row.len(), self.n_attrs(), "row width mismatch");
        row.iter()
            .enumerate()
            .map(|(a, v)| self.encode_cell(a, Some(v.as_ref()), NullLabeling::Shared))
            .collect()
    }

    /// Encodes one raw row where `None` marks a missing value, labeled per
    /// `labeling` exactly as [`crate::RelationBuilder::push_nullable_row`]
    /// would have.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn encode_nullable_row(
        &mut self,
        row: &[Option<&str>],
        labeling: NullLabeling,
    ) -> Vec<u32> {
        assert_eq!(row.len(), self.n_attrs(), "row width mismatch");
        row.iter().enumerate().map(|(a, &value)| self.encode_cell(a, value, labeling)).collect()
    }

    /// The label of one cell of column `a`; `None` is a missing value,
    /// labeled per `labeling`. Known values are looked up by `&str`; no
    /// value allocates.
    pub(crate) fn encode_cell(
        &mut self,
        a: usize,
        value: Option<&str>,
        labeling: NullLabeling,
    ) -> u32 {
        match value {
            Some(v) => {
                let next = &mut self.next_label[a];
                self.dictionaries[a].get_or_insert_with(v, || {
                    *next += 1;
                    *next - 1
                })
            }
            None => match labeling {
                NullLabeling::Shared => match self.shared_null[a] {
                    Some(l) => l,
                    None => {
                        let l = self.fresh(a);
                        self.shared_null[a] = Some(l);
                        l
                    }
                },
                NullLabeling::Distinct => self.fresh(a),
            },
        }
    }

    fn fresh(&mut self, a: usize) -> u32 {
        let l = self.next_label[a];
        self.next_label[a] += 1;
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelationBuilder;

    #[test]
    fn dictionaries_reuse_base_labels_and_allocate_fresh_ones() {
        let mut b = RelationBuilder::new("t", vec!["x".into(), "y".into()]);
        b.push_row(&["a", "p"]);
        b.push_row(&["b", "q"]);
        let (r, mut dicts) = b.finish_with_dictionaries();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(dicts.n_attrs(), 2);
        // Known values keep their labels; new values extend the range.
        assert_eq!(dicts.encode_row(&["b", "p"]), vec![1, 0]);
        assert_eq!(dicts.encode_row(&["c", "p"]), vec![2, 0]);
        // Shared nulls allocate one label and stick to it.
        let n1 = dicts.encode_nullable_row(&[None, Some("p")], NullLabeling::Shared);
        let n2 = dicts.encode_nullable_row(&[None, Some("p")], NullLabeling::Shared);
        assert_eq!(n1, n2);
        // Distinct nulls never repeat.
        let d1 = dicts.encode_nullable_row(&[None, Some("p")], NullLabeling::Distinct);
        let d2 = dicts.encode_nullable_row(&[None, Some("p")], NullLabeling::Distinct);
        assert_ne!(d1[0], d2[0]);
    }
}
