//! The CSV reader against a naive reference: random CSV text with quotes,
//! embedded separators and newlines, CRLF, empty fields, the null token,
//! non-ASCII text, ragged rows and invalid UTF-8 must give the same
//! relation, the same ingest report and the same error (row numbers
//! included) as a byte-at-a-time tokenizer and a `HashMap` encoder written
//! here from the format's rules.

use fd_relation::{
    read_csv_rows, read_csv_with_dictionaries, read_csv_with_report, CsvOptions, NullPolicy,
    RaggedPolicy, Relation,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Input fragments; random sequences of them cover every tokenizer state.
const TOKENS: &[&[u8]] = &[
    b"a", b"b", b"xy", b"1", b"22", b"NULL", b" ", b"\xc3\xa9", "日本".as_bytes(),
    "𝄞".as_bytes(), b",", b",", b",", b";", b"\n", b"\n", b"\r\n", b"\r", b"\"", b"\"",
    b"\"\"", b"\"a,b\"", b"\"x\ny\"", b"\xff", b"\xc3",
];

/// One naively tokenized record: the line it starts on and its raw fields.
type NaiveRecord = (usize, Vec<String>);

/// The format's rules, one byte at a time: physical lines lose trailing
/// `\r`/`\n`; a quote opens a quoted field only as the field's first byte;
/// inside quotes `""` is a quote and `"` closes; a quoted field may span
/// lines (joined by `\n`); fields must be UTF-8. Returns the records before
/// the first error, and that error's message.
fn naive_records(input: &[u8], sep: u8) -> (Vec<NaiveRecord>, Option<String>) {
    let mut lines: Vec<&[u8]> = input.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop(); // the input ended with a newline (or was empty)
    }
    let mut records = Vec::new();
    let mut n = 0;
    while n < lines.len() {
        let start = n + 1;
        let mut fields: Vec<String> = Vec::new();
        let mut field: Vec<u8> = Vec::new();
        let mut in_quotes = false;
        let finish = |field: &mut Vec<u8>, fields: &mut Vec<String>| match String::from_utf8(
            std::mem::take(field),
        ) {
            Ok(s) => {
                fields.push(s);
                Ok(())
            }
            Err(_) => Err(format!("row {start}: field is not valid UTF-8")),
        };
        loop {
            if n == lines.len() {
                return (records, Some(format!("row {start}: unterminated quoted field")));
            }
            let mut line = lines[n];
            n += 1;
            while let [rest @ .., b'\r'] = line {
                line = rest;
            }
            let mut i = 0;
            while i < line.len() {
                let b = line[i];
                i += 1;
                if in_quotes {
                    if b == b'"' {
                        if line.get(i) == Some(&b'"') {
                            field.push(b'"');
                            i += 1;
                        } else {
                            in_quotes = false;
                        }
                    } else {
                        field.push(b);
                    }
                } else if b == b'"' && field.is_empty() {
                    in_quotes = true;
                } else if b == sep {
                    if let Err(e) = finish(&mut field, &mut fields) {
                        return (records, Some(e));
                    }
                } else {
                    field.push(b);
                }
            }
            if in_quotes {
                field.push(b'\n');
                continue;
            }
            if let Err(e) = finish(&mut field, &mut fields) {
                return (records, Some(e));
            }
            records.push((start, fields));
            break;
        }
    }
    (records, None)
}

/// The expected outcome of `read_csv_with_report`: the relation and a
/// rendering of the report, or the error message.
fn naive_ingest(input: &[u8], options: &CsvOptions) -> Result<(Relation, String), String> {
    let (records, error) = naive_records(input, options.separator);
    let Some((_, first)) = records.first() else {
        return Err(error.unwrap_or_else(|| "input contains no rows".to_string()));
    };
    let width = first.len();
    let names: Vec<String> = if options.has_header {
        first.clone()
    } else {
        (0..width).map(|i| format!("col{i}")).collect()
    };
    let data = &records[usize::from(options.has_header)..];
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut issues = Vec::new();
    for (line, fields) in data {
        let found = fields.len();
        let mut row = fields.clone();
        if found != width {
            let action = match options.on_ragged {
                RaggedPolicy::Error => {
                    return Err(format!(
                        "row {line}: found {found} fields, expected {width}"
                    ))
                }
                RaggedPolicy::Skip => "Skipped",
                RaggedPolicy::Pad if found < width => "Padded",
                RaggedPolicy::Pad => "Truncated",
            };
            issues.push(format!("{line}:{found}:{width}:{action}"));
            if options.on_ragged == RaggedPolicy::Skip {
                continue;
            }
            row.resize(width, String::new());
        }
        rows.push(row);
    }
    if let Some(e) = error {
        return Err(e);
    }
    // Dictionary encoding: first occurrence order per column; nulls share
    // one label or get a fresh one each.
    let mut columns: Vec<Vec<u32>> = vec![Vec::new(); width];
    for (a, column) in columns.iter_mut().enumerate() {
        let mut dict: HashMap<&str, u32> = HashMap::new();
        let mut next = 0u32;
        let mut shared_null = None;
        for row in &rows {
            let v = row[a].as_str();
            let null = v.is_empty() || options.null_token.as_deref() == Some(v);
            let label = match (null, options.null_policy) {
                (false, _) => *dict.entry(v).or_insert_with(|| {
                    next += 1;
                    next - 1
                }),
                (true, NullPolicy::NullEqualsNull) => *shared_null.get_or_insert_with(|| {
                    next += 1;
                    next - 1
                }),
                (true, NullPolicy::NullNotEquals) => {
                    next += 1;
                    next - 1
                }
            };
            column.push(label);
        }
    }
    let report = format!("{}/{}/{}", data.len(), rows.len(), issues.join(","));
    Ok((Relation::from_encoded_columns("t", names, columns), report))
}

fn options_strategy() -> impl Strategy<Value = CsvOptions> {
    (0..2u8, 0..3u8, 0..2u8, 0..2u8, 0..4u8).prop_map(
        |(header, ragged, null_policy, token, sep)| CsvOptions {
            separator: if sep == 0 { b';' } else { b',' },
            has_header: header == 1,
            null_token: (token == 1).then(|| "NULL".to_string()),
            null_policy: if null_policy == 0 {
                NullPolicy::NullEqualsNull
            } else {
                NullPolicy::NullNotEquals
            },
            on_ragged: [RaggedPolicy::Error, RaggedPolicy::Skip, RaggedPolicy::Pad]
                [ragged as usize],
        },
    )
}

fn input_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0..TOKENS.len(), 0..48)
        .prop_map(|picks| picks.into_iter().flat_map(|t| TOKENS[t].iter().copied()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn reader_matches_naive_tokenizer(input in input_strategy(), options in options_strategy()) {
        let got = read_csv_with_report(&input[..], "t", &options).map(|(relation, report)| {
            let issues: Vec<String> = report
                .issues
                .iter()
                .map(|i| format!("{}:{}:{}:{:?}", i.row, i.found, i.expected, i.action))
                .collect();
            (relation, format!("{}/{}/{}", report.rows_read, report.rows_kept, issues.join(",")))
        });
        let expect = naive_ingest(&input, &options);
        match (&got, &expect) {
            (Ok(g), Ok(e)) => prop_assert_eq!(g, e),
            (Err(g), Err(e)) => prop_assert_eq!(&g.to_string(), e),
            _ => prop_assert!(
                false,
                "outcome differs on {:?}: got {:?}, expected {:?}",
                String::from_utf8_lossy(&input), got.map(|_| ()), expect.map(|_| ())
            ),
        }
        // The dictionary-keeping reader assigns the same labels.
        let with_dicts = read_csv_with_dictionaries(&input[..], "t", &options);
        match (&got, &with_dicts) {
            (Ok((relation, _)), Ok((same, _, _))) => prop_assert_eq!(relation, same),
            (Err(g), Err(e)) => prop_assert_eq!(g.to_string(), e.to_string()),
            _ => prop_assert!(false, "read_csv_with_dictionaries disagrees on success"),
        }
        // The raw-row reader shares the tokenizer and the ragged policy.
        let rows = read_csv_rows(&input[..], &options);
        match (&got, &rows) {
            (Ok((relation, _)), Ok((names, rows))) => {
                prop_assert_eq!(names.as_slice(), relation.column_names());
                prop_assert_eq!(rows.len(), relation.n_rows());
            }
            (Err(g), Err(e)) => prop_assert_eq!(g.to_string(), e.to_string()),
            _ => prop_assert!(false, "read_csv_rows disagrees on success"),
        }
    }
}
