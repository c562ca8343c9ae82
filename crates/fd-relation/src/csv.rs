//! Minimal RFC-4180 CSV reader/writer.
//!
//! FD discovery tooling conventionally consumes CSV (the Metanome benchmark
//! corpus the paper evaluates on is distributed as CSV), so the substrate
//! includes a dependency-free parser: quoted fields, embedded separators,
//! doubled-quote escapes, and both `\n` and `\r\n` row terminators.
//!
//! Ingest tokenizes a block of records at a time into one reused text
//! buffer plus field spans, then encodes the block column by column
//! straight from that buffer: nothing is allocated per field or per row.

use crate::relation::{Relation, RelationBuilder};
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

/// CSV parsing failure with row context.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A row had a different number of fields than the header.
    RaggedRow {
        /// 1-based physical line where the record starts.
        row: usize,
        /// Fields found in the row.
        found: usize,
        /// Fields expected from the header.
        expected: usize,
    },
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based physical line where the record started.
        row: usize,
    },
    /// A field held bytes that are not valid UTF-8.
    InvalidUtf8 {
        /// 1-based physical line where the record started.
        row: usize,
    },
    /// The input contained no rows at all.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::RaggedRow { row, found, expected } => {
                write!(f, "row {row}: found {found} fields, expected {expected}")
            }
            CsvError::UnterminatedQuote { row } => {
                write!(f, "row {row}: unterminated quoted field")
            }
            CsvError::InvalidUtf8 { row } => {
                write!(f, "row {row}: field is not valid UTF-8")
            }
            CsvError::Empty => write!(f, "input contains no rows"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// How null (missing) values compare, following the two conventions used by
/// FD discovery tools (Metanome exposes the same switch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum NullPolicy {
    /// `null = null`: all nulls of a column share one label (SQL `GROUP BY`
    /// semantics). The default, matching the paper's benchmark setup.
    #[default]
    NullEqualsNull,
    /// `null ≠ null`: every null gets a fresh label, so no tuple pair ever
    /// agrees on a null — FDs become easier to satisfy on sparse columns.
    NullNotEquals,
}

/// What to do with a row whose field count differs from the header's.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RaggedPolicy {
    /// Fail the whole parse (strict RFC-4180; the default).
    #[default]
    Error,
    /// Drop the row, recording a [`RowIssue`].
    Skip,
    /// Keep the row: pad short rows with nulls, truncate long ones; either
    /// way a [`RowIssue`] is recorded.
    Pad,
}

/// Options controlling CSV parsing.
#[derive(Clone, Debug)]
pub struct CsvOptions {
    /// Field separator, `,` by default.
    pub separator: u8,
    /// Whether the first row holds column names. When false, columns are
    /// named `col0`, `col1`, ….
    pub has_header: bool,
    /// The token denoting a missing value (besides the empty string), e.g.
    /// `"NULL"` or `"?"`. Empty fields are always treated as null.
    pub null_token: Option<String>,
    /// Equality semantics for nulls.
    pub null_policy: NullPolicy,
    /// Handling of rows with the wrong field count.
    pub on_ragged: RaggedPolicy,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            separator: b',',
            has_header: true,
            null_token: None,
            null_policy: NullPolicy::NullEqualsNull,
            on_ragged: RaggedPolicy::Error,
        }
    }
}

/// What a permissive ragged-row policy did to one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowAction {
    /// The row was dropped ([`RaggedPolicy::Skip`]).
    Skipped,
    /// The row was extended to full width with nulls ([`RaggedPolicy::Pad`]).
    Padded,
    /// The row's surplus fields were cut off ([`RaggedPolicy::Pad`]).
    Truncated,
}

/// Per-row diagnostic emitted by a permissive ingestion run.
#[derive(Clone, Debug)]
pub struct RowIssue {
    /// 1-based physical line where the record starts (header and the extra
    /// lines of multi-line fields included in the count).
    pub row: usize,
    /// Fields found in the row.
    pub found: usize,
    /// Fields expected from the header.
    pub expected: usize,
    /// What was done with the row.
    pub action: RowAction,
}

/// Summary of an ingestion run: how many data rows were seen, how many made
/// it into the relation, and what happened to the ones that did not arrive
/// intact.
#[derive(Clone, Debug, Default)]
pub struct IngestReport {
    /// Data rows read from the input (excluding the header).
    pub rows_read: usize,
    /// Data rows that ended up in the relation.
    pub rows_kept: usize,
    /// One entry per malformed row the policy handled.
    pub issues: Vec<RowIssue>,
}

/// Reads a dictionary-encoded [`Relation`] from a CSV file.
pub fn read_csv_file(path: impl AsRef<Path>, options: &CsvOptions) -> Result<Relation, CsvError> {
    read_csv_file_with_report(path, options).map(|(relation, _)| relation)
}

/// [`read_csv_file`] returning the per-row [`IngestReport`] as well.
pub fn read_csv_file_with_report(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(Relation, IngestReport), CsvError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "csv".to_owned());
    // The raw file goes straight in: read_csv_with_report adds the single
    // BufReader layer.
    let file = File::open(path)?;
    read_csv_with_report(file, &name, options)
}

/// Reads a dictionary-encoded [`Relation`] from any reader.
pub fn read_csv<R: Read>(
    reader: R,
    name: &str,
    options: &CsvOptions,
) -> Result<Relation, CsvError> {
    read_csv_with_report(reader, name, options).map(|(relation, _)| relation)
}

/// [`read_csv`] returning the per-row [`IngestReport`] as well. With
/// [`RaggedPolicy::Error`] (the default) the report never carries issues —
/// the first malformed row fails the parse; the permissive policies record
/// what they skipped, padded, or truncated.
pub fn read_csv_with_report<R: Read>(
    reader: R,
    name: &str,
    options: &CsvOptions,
) -> Result<(Relation, IngestReport), CsvError> {
    let (builder, report) = ingest(reader, name, options)?;
    Ok((builder.finish(), report))
}

/// [`read_csv_with_report`] that also keeps the per-column dictionaries
/// alive, so delta rows arriving later (e.g. via `fdtool --delta-csv`) can
/// be encoded consistently with the base table — known values map to their
/// old labels, unseen values get fresh ones.
pub fn read_csv_with_dictionaries<R: Read>(
    reader: R,
    name: &str,
    options: &CsvOptions,
) -> Result<(Relation, crate::delta::ColumnDictionaries, IngestReport), CsvError> {
    let (builder, report) = ingest(reader, name, options)?;
    let (relation, dicts) = builder.finish_with_dictionaries();
    Ok((relation, dicts, report))
}

/// [`read_csv_with_dictionaries`] over a file path.
pub fn read_csv_file_with_dictionaries(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(Relation, crate::delta::ColumnDictionaries, IngestReport), CsvError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "csv".to_owned());
    let file = File::open(path)?;
    read_csv_with_dictionaries(file, &name, options)
}

/// Reads raw string rows (header names + data rows) without encoding them
/// into a relation — the delta-file reader: rows are handed to
/// [`crate::ColumnDictionaries::encode_nullable_row`] against an existing
/// base table instead of a fresh builder. Honours the separator, header,
/// and ragged-row policy of `options`; null detection is left to the
/// caller, who knows the base table's null convention.
pub fn read_csv_rows<R: Read>(
    reader: R,
    options: &CsvOptions,
) -> Result<(Vec<String>, Vec<Vec<String>>), CsvError> {
    let mut out: Vec<Vec<String>> = Vec::new();
    let names = scan(reader, options, |block, records| {
        for r in records {
            let fields = block.fields(r);
            if fields.len() != block.names.len() {
                match options.on_ragged {
                    RaggedPolicy::Error => return Err(block.ragged_error(r)),
                    RaggedPolicy::Skip => continue,
                    RaggedPolicy::Pad => {}
                }
            }
            out.push((0..block.names.len()).map(|a| block.field(r, a).to_owned()).collect());
        }
        Ok(())
    })?;
    Ok((names, out))
}

/// [`read_csv_rows`] over a file path.
pub fn read_csv_rows_file(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<(Vec<String>, Vec<Vec<String>>), CsvError> {
    let file = File::open(path.as_ref())?;
    read_csv_rows(file, options)
}

/// Shared ingestion loop of the relation-producing readers: tokenizes
/// records a block at a time, applies the ragged-row policy record by
/// record, then encodes the block's kept records into a
/// [`RelationBuilder`] one column at a time, so each column's dictionary
/// stays cache-resident for the whole block. Fields are encoded straight
/// from the block's text: a dictionary key is allocated only for a value's
/// first occurrence. Labels depend only on each column's value order, so
/// they equal a row-at-a-time encoding's.
fn ingest<R: Read>(
    reader: R,
    name: &str,
    options: &CsvOptions,
) -> Result<(RelationBuilder, IngestReport), CsvError> {
    let labeling = match options.null_policy {
        NullPolicy::NullEqualsNull => crate::relation::NullLabeling::Shared,
        NullPolicy::NullNotEquals => crate::relation::NullLabeling::Distinct,
    };
    let null_token = options.null_token.as_deref();
    let mut builder: Option<RelationBuilder> = None;
    let mut report = IngestReport::default();
    let mut kept: Vec<usize> = Vec::new();
    let names = scan(reader, options, |block, records| {
        kept.clear();
        for r in records {
            report.rows_read += 1;
            // Chaos hook: an injected allocation failure surfaces as a clean
            // `CsvError::Io(OutOfMemory)` — ingestion fails loudly and early
            // rather than panicking or truncating the relation silently.
            if fd_faults::inject!("csv.ingest") == Some(fd_faults::Injected::AllocFail) {
                return Err(CsvError::Io(std::io::Error::new(
                    std::io::ErrorKind::OutOfMemory,
                    "fd-faults: injected allocation failure",
                )));
            }
            let (found, expected) = (block.fields(r).len(), block.names.len());
            if found != expected {
                let action = match options.on_ragged {
                    RaggedPolicy::Error => return Err(block.ragged_error(r)),
                    RaggedPolicy::Skip => RowAction::Skipped,
                    RaggedPolicy::Pad if found < expected => RowAction::Padded,
                    RaggedPolicy::Pad => RowAction::Truncated,
                };
                let row = block.records[r].line;
                report.issues.push(RowIssue { row, found, expected, action });
                if action == RowAction::Skipped {
                    continue;
                }
            }
            kept.push(r);
        }
        let builder =
            builder.get_or_insert_with(|| RelationBuilder::new(name, block.names.clone()));
        for a in 0..block.names.len() {
            for &r in &kept {
                // Padded cells are empty, hence null.
                let value = block.field(r, a);
                let value = (!value.is_empty() && null_token != Some(value)).then_some(value);
                builder.push_cell(a, value, labeling);
            }
        }
        report.rows_kept += kept.len();
        Ok(())
    })?;
    let builder = builder.unwrap_or_else(|| RelationBuilder::new(name, names));
    Ok((builder, report))
}

/// Records tokenized per block. Bounds the block's memory (its text and
/// spans) independently of the file size.
const BLOCK_RECORDS: usize = 16_384;

/// Drives the tokenizer over `reader`: resolves the column names from the
/// first record (the header, or `col0, col1, …` when there is none), then
/// calls `on_block(block, records)` with each block's data records in
/// input order. Returns the column names.
///
/// A tokenizer error (bad UTF-8, unterminated quote, I/O) is raised after
/// the block's records before it were handed out, so errors surface in
/// input order exactly as a record-at-a-time reader would raise them.
fn scan<R: Read>(
    reader: R,
    options: &CsvOptions,
    mut on_block: impl FnMut(&Block, Range<usize>) -> Result<(), CsvError>,
) -> Result<Vec<String>, CsvError> {
    let mut tokenizer = Tokenizer::new(BufReader::new(reader), options.separator);
    let mut block = Block::default();
    let mut error = tokenizer.fill(&mut block, BLOCK_RECORDS);
    if block.records.is_empty() {
        return Err(error.unwrap_or(CsvError::Empty));
    }
    let width = block.fields(0).len();
    block.names = if options.has_header {
        (0..width).map(|a| block.field(0, a).to_owned()).collect()
    } else {
        (0..width).map(|i| format!("col{i}")).collect()
    };
    let mut start = usize::from(options.has_header);
    loop {
        on_block(&block, start..block.records.len())?;
        if let Some(e) = error {
            return Err(e);
        }
        if tokenizer.done {
            return Ok(std::mem::take(&mut block.names));
        }
        error = tokenizer.fill(&mut block, BLOCK_RECORDS);
        start = 0;
    }
}

/// One tokenized record: the 1-based physical line it starts on and the
/// index of its first field span.
struct Record {
    line: usize,
    first_field: usize,
}

/// A block of tokenized records. Field values are decoded, unescaped and
/// UTF-8-validated into one reused `text` buffer; each field is a byte span
/// of it. The buffers are cleared, not freed, between blocks.
#[derive(Default)]
struct Block {
    text: String,
    spans: Vec<(usize, usize)>,
    records: Vec<Record>,
    /// Column names, resolved from the first record; their count is the
    /// field count every record should have.
    names: Vec<String>,
}

impl Block {
    fn clear(&mut self) {
        self.text.clear();
        self.spans.clear();
        self.records.clear();
    }

    /// The field spans of record `r`.
    fn fields(&self, r: usize) -> &[(usize, usize)] {
        let end = self.records.get(r + 1).map_or(self.spans.len(), |next| next.first_field);
        &self.spans[self.records[r].first_field..end]
    }

    /// Field `a` of record `r`; empty past the record's last field.
    fn field(&self, r: usize, a: usize) -> &str {
        self.fields(r).get(a).map_or("", |&(start, end)| &self.text[start..end])
    }

    fn ragged_error(&self, r: usize) -> CsvError {
        CsvError::RaggedRow {
            row: self.records[r].line,
            found: self.fields(r).len(),
            expected: self.names.len(),
        }
    }
}

/// Streaming RFC-4180 tokenizer over an already-buffered source (the
/// callers add exactly one [`BufReader`] layer; stacking another here would
/// double the copy on every line). Reads physical lines into one reused
/// buffer and honours quotes that span lines.
struct Tokenizer<R: BufRead> {
    reader: R,
    separator: u8,
    /// The current physical line, terminator stripped.
    line: Vec<u8>,
    /// Physical lines consumed so far.
    lines_read: usize,
    /// Bytes of a field still being assembled: a quoted field spanning
    /// lines, or one mixing quoted and literal parts.
    field: Vec<u8>,
    done: bool,
}

impl<R: BufRead> Tokenizer<R> {
    fn new(reader: R, separator: u8) -> Self {
        Tokenizer {
            reader,
            separator,
            line: Vec::new(),
            lines_read: 0,
            field: Vec::new(),
            done: false,
        }
    }

    /// Clears `block` and tokenizes up to `max` records into it. On an
    /// error the block keeps the complete records before the failing one,
    /// and the error is returned for the caller to raise after them.
    fn fill(&mut self, block: &mut Block, max: usize) -> Option<CsvError> {
        block.clear();
        while !self.done && block.records.len() < max {
            let mark = (block.records.len(), block.text.len(), block.spans.len());
            match self.record(block) {
                Ok(true) => {}
                Ok(false) => self.done = true,
                Err(e) => {
                    self.done = true;
                    block.records.truncate(mark.0);
                    block.text.truncate(mark.1);
                    block.spans.truncate(mark.2);
                    return Some(e);
                }
            }
        }
        None
    }

    /// Tokenizes the next logical record into `block`. Returns false at
    /// the end of input.
    fn record(&mut self, block: &mut Block) -> Result<bool, CsvError> {
        let start_line = self.lines_read + 1;
        let mut in_quotes = false;
        self.field.clear();
        loop {
            self.line.clear();
            if self.reader.read_until(b'\n', &mut self.line)? == 0 {
                if self.lines_read + 1 == start_line {
                    return Ok(false);
                }
                // Only an open quote carries a record past its last line.
                return Err(CsvError::UnterminatedQuote { row: start_line });
            }
            if self.lines_read + 1 == start_line {
                block.records.push(Record { line: start_line, first_field: block.spans.len() });
            }
            self.lines_read += 1;
            while matches!(self.line.last(), Some(b'\n' | b'\r')) {
                self.line.pop();
            }
            in_quotes = self.tokenize_line(in_quotes, block, start_line)?;
            if !in_quotes {
                return Ok(true);
            }
            // The quoted field continues on the next physical line.
            self.field.push(b'\n');
        }
    }

    /// Tokenizes the current line, continuing a quoted field when
    /// `in_quotes`. Returns whether the line ended inside quotes.
    ///
    /// A quote opens a quoted field only as the field's first byte; inside
    /// quotes a doubled quote is a literal quote and a single one closes
    /// the quotes. Once a field has content, every byte up to the next
    /// separator is literal.
    fn tokenize_line(
        &mut self,
        mut in_quotes: bool,
        block: &mut Block,
        row: usize,
    ) -> Result<bool, CsvError> {
        let line = &self.line[..];
        let sep = self.separator;
        let mut i = 0;
        loop {
            if in_quotes {
                match line[i..].iter().position(|&b| b == b'"') {
                    None => {
                        self.field.extend_from_slice(&line[i..]);
                        return Ok(true);
                    }
                    Some(k) => {
                        self.field.extend_from_slice(&line[i..i + k]);
                        i += k + 1;
                        if line.get(i) == Some(&b'"') {
                            self.field.push(b'"');
                            i += 1;
                        } else {
                            in_quotes = false;
                        }
                    }
                }
                continue;
            }
            if i < line.len() && line[i] == b'"' && self.field.is_empty() {
                in_quotes = true;
                i += 1;
                continue;
            }
            let end = line[i..].iter().position(|&b| b == sep).map_or(line.len(), |k| i + k);
            if self.field.is_empty() {
                // The common case: a plain field, pushed straight from the line.
                push_field(block, &line[i..end], row)?;
            } else {
                self.field.extend_from_slice(&line[i..end]);
                push_field(block, &self.field, row)?;
                self.field.clear();
            }
            if end == line.len() {
                return Ok(false);
            }
            i = end + 1;
        }
    }
}

/// Appends one complete field's bytes to the block, mapping bad encodings
/// to [`CsvError::InvalidUtf8`] with the line the record started on.
fn push_field(block: &mut Block, bytes: &[u8], row: usize) -> Result<(), CsvError> {
    let value = std::str::from_utf8(bytes).map_err(|_| CsvError::InvalidUtf8 { row })?;
    let start = block.text.len();
    block.text.push_str(value);
    block.spans.push((start, block.text.len()));
    Ok(())
}

/// Writes raw string rows as CSV, quoting fields when needed. Used by the
/// examples and by tests to round-trip generated datasets.
pub fn write_csv<W: Write>(
    writer: W,
    header: &[String],
    rows: impl Iterator<Item = Vec<String>>,
    separator: u8,
) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    write_row(&mut w, header.iter().map(|s| s.as_str()), separator)?;
    for row in rows {
        write_row(&mut w, row.iter().map(|s| s.as_str()), separator)?;
    }
    w.flush()
}

fn write_row<'a, W: Write>(
    w: &mut W,
    fields: impl Iterator<Item = &'a str>,
    separator: u8,
) -> io::Result<()> {
    let mut first = true;
    for f in fields {
        if !first {
            w.write_all(&[separator])?;
        }
        first = false;
        let needs_quotes =
            f.bytes().any(|b| b == separator || b == b'"' || b == b'\n' || b == b'\r');
        if needs_quotes {
            write!(w, "\"{}\"", f.replace('"', "\"\""))?;
        } else {
            w.write_all(f.as_bytes())?;
        }
    }
    w.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(data: &str) -> Relation {
        read_csv(data.as_bytes(), "test", &CsvOptions::default()).unwrap()
    }

    #[test]
    fn parses_plain_csv_with_header() {
        let r = parse("a,b,c\n1,2,3\n1,5,3\n");
        assert_eq!(r.n_attrs(), 3);
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.column_names(), &["a".to_string(), "b".into(), "c".into()]);
        assert_eq!(r.column(0), &[0, 0]);
        assert_eq!(r.column(1), &[0, 1]);
    }

    #[test]
    fn headerless_mode_names_columns() {
        let opts = CsvOptions { has_header: false, ..Default::default() };
        let r = read_csv("x,y\nx,z\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.column_names(), &["col0".to_string(), "col1".into()]);
    }

    #[test]
    fn quoted_fields_with_separators_and_escapes() {
        let r = parse("a,b\n\"x,1\",\"he said \"\"hi\"\"\"\nplain,other\n");
        assert_eq!(r.n_rows(), 2);
        // Distinct values per column confirm the quoted content was one field.
        assert_eq!(r.n_distinct(0), 2);
        assert_eq!(r.n_distinct(1), 2);
    }

    #[test]
    fn quoted_field_spanning_lines() {
        let r = parse("a,b\n\"line1\nline2\",v\nq,v\n");
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.n_distinct(1), 1);
    }

    #[test]
    fn crlf_terminators_are_stripped() {
        let r = parse("a,b\r\n1,2\r\n1,2\r\n");
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.n_distinct(0), 1);
        assert_eq!(r.n_distinct(1), 1);
    }

    #[test]
    fn ragged_rows_are_an_error() {
        let err = read_csv("a,b\n1\n".as_bytes(), "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { row: 2, found: 1, expected: 2 }));
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = read_csv("a\n\"open\n".as_bytes(), "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::UnterminatedQuote { .. }));
    }

    #[test]
    fn empty_input_is_an_error() {
        let err = read_csv("".as_bytes(), "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::Empty));
    }

    #[test]
    fn shared_nulls_agree_with_each_other() {
        // Default policy: the two empty cells in column b share a label.
        let r = parse("a,b\n1,\n2,\n3,x\n");
        assert_eq!(r.n_distinct(1), 2);
        assert_eq!(r.label(0, 1), r.label(1, 1));
        assert_ne!(r.label(0, 1), r.label(2, 1));
    }

    #[test]
    fn distinct_nulls_never_agree() {
        let opts = CsvOptions { null_policy: NullPolicy::NullNotEquals, ..Default::default() };
        let r = read_csv("a,b\n1,\n2,\n3,x\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_distinct(1), 3);
        assert_ne!(r.label(0, 1), r.label(1, 1));
    }

    #[test]
    fn custom_null_token_is_recognized() {
        let opts = CsvOptions { null_token: Some("?".to_string()), ..Default::default() };
        let r = read_csv("a,b\n1,?\n2,?\n3,q\n".as_bytes(), "t", &opts).unwrap();
        // '?' cells share the null label; 'q' is a real value.
        assert_eq!(r.n_distinct(1), 2);
        assert_eq!(r.label(0, 1), r.label(1, 1));
        // Without the token, '?' is an ordinary value equal to itself.
        let plain = parse("a,b\n1,?\n2,?\n3,q\n");
        assert_eq!(plain.n_distinct(1), 2);
    }

    #[test]
    fn null_policy_changes_discovered_structure() {
        // With null=null, column a determines b only if the two null rows
        // agree on a too; with null≠null the nulls cannot violate anything.
        let data = "a,b\nx,\ny,\nx,1\n";
        let shared = parse(data);
        // rows 0 and 2 share a=x but b differs (null vs 1): a ↛ b.
        assert!(!shared.fd_holds(&fd_core::AttrSet::single(0), 1));
        let opts = CsvOptions { null_policy: NullPolicy::NullNotEquals, ..Default::default() };
        let distinct = read_csv(data.as_bytes(), "t", &opts).unwrap();
        // Same violation persists (null ≠ 1 either way)…
        assert!(!distinct.fd_holds(&fd_core::AttrSet::single(0), 1));
        // …but b → a flips: with shared nulls rows 0,1 agree on b and
        // disagree on a (violation); with distinct nulls they don't agree.
        assert!(!shared.fd_holds(&fd_core::AttrSet::single(1), 0));
        assert!(distinct.fd_holds(&fd_core::AttrSet::single(1), 0));
    }

    #[test]
    fn semicolon_separator() {
        let opts = CsvOptions { separator: b';', ..Default::default() };
        let r = read_csv("a;b\n1;2\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_attrs(), 2);
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn non_ascii_fields_survive_intact() {
        // Multi-byte UTF-8 (2-, 3-, and 4-byte sequences) in plain and
        // quoted fields must round-trip byte-for-byte. Header names are the
        // directly observable parse output; byte-at-a-time `as char`
        // decoding would mangle every one of them into mojibake.
        let data = "café,\"日本語, quoted\",𝄞clef\n1,2,3\n1,2,3\n";
        let r = read_csv(data.as_bytes(), "t", &CsvOptions::default()).unwrap();
        assert_eq!(
            r.column_names(),
            &["café".to_string(), "日本語, quoted".into(), "𝄞clef".into()]
        );
        assert_eq!(r.n_rows(), 2);
    }

    #[test]
    fn non_ascii_null_token_matches_fields() {
        // Data-cell bytes must decode exactly too: a non-ASCII null token
        // only matches if the field survived without re-encoding.
        let opts = CsvOptions { null_token: Some("é?".to_string()), ..Default::default() };
        let r = read_csv("a,b\n1,é?\n2,é?\n3,x\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_distinct(1), 2, "the two null cells must share one label");
        assert_eq!(r.label(0, 1), r.label(1, 1));
        assert_ne!(r.label(0, 1), r.label(2, 1));
    }

    #[test]
    fn written_non_ascii_roundtrips_through_the_parser() {
        let header = vec!["naïve".to_string(), "日本".to_string()];
        let rows = vec![vec!["é,è".to_string(), "ü\nö".to_string()]];
        let mut buf = Vec::new();
        write_csv(&mut buf, &header, rows.into_iter(), b',').unwrap();
        let r = read_csv(&buf[..], "rt", &CsvOptions::default()).unwrap();
        assert_eq!(r.column_names(), &header[..]);
        assert_eq!(r.n_rows(), 1);
    }

    #[test]
    fn invalid_utf8_is_an_error_with_row_number() {
        let mut data = b"a,b\nok,fine\n".to_vec();
        data.extend_from_slice(&[0xFF, 0xFE, b',', b'x', b'\n']);
        let err = read_csv(&data[..], "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::InvalidUtf8 { row: 3 }), "{err:?}");
    }

    #[test]
    fn row_numbers_are_physical_lines_where_the_record_starts() {
        // The quoted field spans lines 2–3, so the ragged record is line 4.
        let data = "a,b\n\"x\ny\",1\n1,2,3\n";
        let err = read_csv(data.as_bytes(), "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { row: 4, found: 3, expected: 2 }), "{err:?}");
        let skip = CsvOptions { on_ragged: RaggedPolicy::Skip, ..Default::default() };
        let (_, report) = read_csv_with_report(data.as_bytes(), "t", &skip).unwrap();
        assert_eq!(report.issues[0].row, 4);
        // Bad UTF-8 on the same line names the same row.
        let bad = b"a,b\n\"x\ny\",1\n\xff,2\n";
        let err = read_csv(&bad[..], "t", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::InvalidUtf8 { row: 4 }), "{err:?}");
        // Without a header the first record is line 1.
        let headerless = CsvOptions { has_header: false, ..Default::default() };
        let err = read_csv("1,2\n3\n".as_bytes(), "t", &headerless).unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { row: 2, .. }), "{err:?}");
    }

    #[test]
    fn ragged_skip_drops_rows_and_reports_them() {
        let opts = CsvOptions { on_ragged: RaggedPolicy::Skip, ..Default::default() };
        let (r, report) =
            read_csv_with_report("a,b\n1,2\n3\n4,5,6\n7,8\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(report.rows_read, 4);
        assert_eq!(report.rows_kept, 2);
        assert_eq!(report.issues.len(), 2);
        assert_eq!(report.issues[0].row, 3);
        assert_eq!(report.issues[0].found, 1);
        assert_eq!(report.issues[0].action, RowAction::Skipped);
        assert_eq!(report.issues[1].row, 4);
        assert_eq!(report.issues[1].found, 3);
    }

    #[test]
    fn ragged_pad_keeps_rows_with_nulls_and_truncation() {
        let opts = CsvOptions { on_ragged: RaggedPolicy::Pad, ..Default::default() };
        let (r, report) =
            read_csv_with_report("a,b\n1,2\n3\n4,5,6\n".as_bytes(), "t", &opts).unwrap();
        assert_eq!(r.n_rows(), 3);
        assert_eq!(report.rows_kept, 3);
        assert_eq!(report.issues.len(), 2);
        assert_eq!(report.issues[0].action, RowAction::Padded);
        assert_eq!(report.issues[1].action, RowAction::Truncated);
        // The padded cell behaves as a null: shares a label with nothing
        // non-null in column b.
        assert_eq!(r.n_attrs(), 2);
    }

    #[test]
    fn strict_parse_has_clean_report() {
        let (_, report) =
            read_csv_with_report("a,b\n1,2\n".as_bytes(), "t", &CsvOptions::default()).unwrap();
        assert_eq!(report.rows_read, 1);
        assert_eq!(report.rows_kept, 1);
        assert!(report.issues.is_empty());
    }

    #[test]
    fn dictionaries_reader_matches_plain_reader_and_extends_labels() {
        let data = "a,b\nx,1\ny,2\nx,3\n";
        let plain = parse(data);
        use crate::NullLabeling;
        let (r, mut dicts, report) =
            read_csv_with_dictionaries(data.as_bytes(), "test", &CsvOptions::default()).unwrap();
        assert_eq!(r, plain);
        assert_eq!(report.rows_kept, 3);
        // A delta row with one known and one unseen value.
        let encoded = dicts.encode_nullable_row(&[Some("y"), Some("9")], NullLabeling::Shared);
        assert_eq!(encoded[0], r.label(1, 0), "known value keeps its base label");
        assert_eq!(encoded[1] as usize, r.n_distinct(1), "unseen value gets the next label");
    }

    #[test]
    fn raw_row_reader_returns_strings_and_honours_policies() {
        let (names, rows) =
            read_csv_rows("a,b\n1,2\n3,4\n".as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(names, vec!["a".to_string(), "b".into()]);
        assert_eq!(rows, vec![vec!["1".to_string(), "2".into()], vec!["3".into(), "4".into()]]);
        // Headerless input keeps the first row as data.
        let opts = CsvOptions { has_header: false, ..Default::default() };
        let (names, rows) = read_csv_rows("1,2\n".as_bytes(), &opts).unwrap();
        assert_eq!(names, vec!["col0".to_string(), "col1".into()]);
        assert_eq!(rows.len(), 1);
        // Ragged rows follow the policy.
        let skip = CsvOptions { on_ragged: RaggedPolicy::Skip, ..Default::default() };
        let (_, rows) = read_csv_rows("a,b\n1\n2,3\n".as_bytes(), &skip).unwrap();
        assert_eq!(rows, vec![vec!["2".to_string(), "3".into()]]);
        assert!(read_csv_rows("a,b\n1\n".as_bytes(), &CsvOptions::default()).is_err());
    }

    #[test]
    fn write_then_read_roundtrip() {
        let header = vec!["name".to_string(), "note".to_string()];
        let rows = vec![
            vec!["plain".to_string(), "with,comma".to_string()],
            vec!["quote\"y".to_string(), "multi\nline".to_string()],
        ];
        let mut buf = Vec::new();
        write_csv(&mut buf, &header, rows.clone().into_iter(), b',').unwrap();
        let r = read_csv(&buf[..], "rt", &CsvOptions::default()).unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.n_attrs(), 2);
        assert_eq!(r.n_distinct(0), 2);
        assert_eq!(r.n_distinct(1), 2);
    }
}
