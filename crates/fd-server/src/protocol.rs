//! The line protocol behind `fdtool serve`.
//!
//! One request per input line, whitespace-separated tokens; one JSON object
//! per response line. Deliberately minimal — no async runtime, no framing
//! beyond newlines — so the server is driveable from a shell pipe, an
//! integration test, or `nc -U` against the Unix socket.
//!
//! Commands (`submit <cmd...>` makes any of the blocking ones asynchronous):
//!
//! ```text
//! register <name> <csv-path>
//! discover <name> [th_ncover=V] [th_pcover=V]
//! validate <name> <lhs-csv|-> <rhs>
//! keys <name>
//! delta <name> [delete=0,1,2] [insert=a|b|c;d|e|f]
//! submit <subcommand...>         -> {"ok":true,"job":N}
//! wait <job>
//! cancel <job>
//! stats
//! metrics                        -> aggregated metrics window
//! subscribe [n] [from=N]         -> one JSON line per published window
//! trace <job>                    -> span tree of a completed job
//! quit
//! ```
//!
//! The three observability verbs need the live metrics plane: a
//! `telemetry`-feature build started with a metrics interval. Without the
//! feature they answer a clean `"telemetry disabled"` error; with the
//! feature but no plane, `"metrics plane not enabled"`. `subscribe` is the
//! one streaming verb — it blocks the connection pushing each newly
//! published window (optionally only `n` of them; `from=N` replays retained
//! windows starting at sequence `N`, `from=0`/`from=1` meaning "oldest
//! retained") until the count is reached, the client disconnects, or the
//! server shuts down.
//!
//! FDs are rendered as sorted `"0,1->2"` strings (attribute ids, empty LHS
//! renders as `"->2"`), so two responses are comparable byte-for-byte.

use crate::jobs::{DiscoverOptions, JobOutcome, JobResult, Request, RowsSpec};
use crate::metrics::TraceEntry;
use crate::server::{Server, Session};
use fd_core::{AttrId, AttrSet, FdSet};
use fd_telemetry::{json_number, json_string, Window};
use std::io::{BufRead, BufReader, Write};

/// Serves the line protocol over any reader/writer pair until EOF or
/// `quit`. Each call gets its own [`Session`] (weight 1), so concurrent
/// connections are scheduled fairly against each other.
pub fn serve_lines<R: BufRead, W: Write>(
    server: &Server,
    reader: R,
    mut writer: W,
) -> std::io::Result<()> {
    let session = server.session();
    for line in reader.lines() {
        let line = line?;
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        if tokens[0] == "quit" {
            writeln!(writer, "{}", ok_object(&[("bye", JsonValue::Bool(true))]))?;
            writer.flush()?;
            break;
        }
        if tokens[0] == "subscribe" {
            serve_subscribe(server, &tokens, &mut writer)?;
            continue;
        }
        let response = handle_command(server, &session, &tokens);
        writeln!(writer, "{response}")?;
        writer.flush()?;
    }
    Ok(())
}

/// Serves connections on a Unix socket, one thread per connection. Blocks
/// until the listener errors (e.g. the socket file is removed). The socket
/// file is created fresh; a stale file from a previous run is removed.
pub fn serve_unix(server: &Server, path: &str) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    std::thread::scope(|scope| {
        for stream in listener.incoming() {
            let stream = stream?;
            scope.spawn(move || {
                let reader = BufReader::new(stream.try_clone().expect("clone unix stream"));
                let _ = serve_lines(server, reader, stream);
            });
        }
        Ok(())
    })
}

/// Executes one parsed command line and returns the JSON response line.
/// Public so integration tests can drive the protocol without I/O plumbing.
pub fn handle_command(server: &Server, session: &Session, tokens: &[&str]) -> String {
    match tokens {
        ["register", name, path] => match server.register_csv(name, path) {
            Ok(info) => ok_object(&[
                ("dataset", JsonValue::Str(info.name)),
                ("version", JsonValue::Num(info.version as f64)),
                ("rows", JsonValue::Num(info.rows as f64)),
                ("cols", JsonValue::Num(info.cols as f64)),
                ("fd_count", JsonValue::Num(info.fd_count as f64)),
            ]),
            Err(e) => err_line(&e.to_string()),
        },
        ["submit", rest @ ..] if !rest.is_empty() => match parse_request(rest) {
            Ok(request) => {
                let job = session.submit(request);
                ok_object(&[("job", JsonValue::Num(job as f64))])
            }
            Err(e) => err_line(&e),
        },
        ["wait", job] => match job.parse::<u64>() {
            Ok(job) => render_result(&session.wait(job)),
            Err(_) => err_line("wait: job id must be an integer"),
        },
        ["cancel", job] => match job.parse::<u64>() {
            Ok(job) => {
                let cancelled = session.cancel(job);
                ok_object(&[("cancelled", JsonValue::Bool(cancelled))])
            }
            Err(_) => err_line("cancel: job id must be an integer"),
        },
        ["stats"] => {
            let stats = server.stats();
            let datasets = server.catalog().list();
            let outstanding: Vec<(String, String)> = stats
                .outstanding_jobs
                .iter()
                .map(|&(sid, n)| (sid.to_string(), n.to_string()))
                .collect();
            ok_object(&[
                ("jobs_completed", JsonValue::Num(stats.jobs_completed as f64)),
                ("jobs_cancelled", JsonValue::Num(stats.jobs_cancelled as f64)),
                ("cache_hits", JsonValue::Num(stats.cache_hits as f64)),
                ("cache_invalidations", JsonValue::Num(stats.cache_invalidations as f64)),
                ("jobs_panicked", JsonValue::Num(stats.jobs_panicked as f64)),
                ("datasets", JsonValue::Num(datasets.len() as f64)),
                ("queue_depth", JsonValue::Num(stats.queue_depth as f64)),
                ("worker_busy", JsonValue::Num(stats.worker_busy as f64)),
                ("outstanding_jobs", JsonValue::Raw(render_object(&outstanding))),
            ])
        }
        ["metrics"] => match metrics_unavailable(server) {
            Some(err) => err,
            None => render_metrics(server),
        },
        ["trace", job] => match job.parse::<u64>() {
            Ok(job) => match metrics_unavailable(server) {
                Some(err) => err,
                None => match server.trace_of(job) {
                    Some(entry) => render_trace(&entry),
                    None => err_line(&format!("no trace retained for job {job}")),
                },
            },
            Err(_) => err_line("trace: job id must be an integer"),
        },
        ["subscribe", ..] => {
            // serve_lines intercepts subscribe before dispatching here; a
            // direct handle_command call has no stream to push windows into.
            metrics_unavailable(server)
                .unwrap_or_else(|| err_line("subscribe requires a streaming connection"))
        }
        rest => match parse_request(rest) {
            Ok(request) => render_result(&session.run(request)),
            Err(e) => err_line(&e),
        },
    }
}

/// Parses the blocking subcommands (`discover`/`validate`/`keys`/`delta`)
/// into a [`Request`].
fn parse_request(tokens: &[&str]) -> Result<Request, String> {
    match tokens {
        ["discover", name, opts @ ..] => {
            let mut options = DiscoverOptions::default();
            for opt in opts {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("discover: expected key=value, got '{opt}'"))?;
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("discover: '{key}' needs a number, got '{value}'"))?;
                match key {
                    "th_ncover" => options.th_ncover = Some(parsed),
                    "th_pcover" => options.th_pcover = Some(parsed),
                    _ => return Err(format!("discover: unknown option '{key}'")),
                }
            }
            Ok(Request::Discover { dataset: (*name).to_owned(), options })
        }
        ["validate", name, lhs, rhs] => {
            let lhs: Vec<AttrId> = if *lhs == "-" {
                Vec::new()
            } else {
                lhs.split(',')
                    .map(|a| a.parse().map_err(|_| format!("validate: bad attribute '{a}'")))
                    .collect::<Result<_, _>>()?
            };
            let rhs: AttrId =
                rhs.parse().map_err(|_| format!("validate: bad attribute '{rhs}'"))?;
            Ok(Request::Validate { dataset: (*name).to_owned(), lhs, rhs })
        }
        ["keys", name] => Ok(Request::Keys { dataset: (*name).to_owned() }),
        ["delta", name, opts @ ..] => {
            let mut deletes = Vec::new();
            let mut inserts = Vec::new();
            for opt in opts {
                let (key, value) = opt
                    .split_once('=')
                    .ok_or_else(|| format!("delta: expected key=value, got '{opt}'"))?;
                match key {
                    "delete" => {
                        for id in value.split(',').filter(|s| !s.is_empty()) {
                            deletes.push(
                                id.parse()
                                    .map_err(|_| format!("delta: bad row id '{id}'"))?,
                            );
                        }
                    }
                    "insert" => {
                        for row in value.split(';').filter(|s| !s.is_empty()) {
                            inserts.push(row.split('|').map(str::to_owned).collect());
                        }
                    }
                    _ => return Err(format!("delta: unknown option '{key}'")),
                }
            }
            if deletes.is_empty() && inserts.is_empty() {
                return Err("delta: need delete= and/or insert=".to_owned());
            }
            Ok(Request::Delta {
                dataset: (*name).to_owned(),
                inserts: RowsSpec::Raw(inserts),
                deletes,
            })
        }
        [cmd, ..] => Err(format!("unknown command '{cmd}'")),
        [] => Err("empty command".to_owned()),
    }
}

/// Renders one FD as the canonical `"0,1->2"` form.
fn render_fd(lhs: &AttrSet, rhs: AttrId) -> String {
    let lhs: Vec<String> = lhs.iter().map(|a| a.to_string()).collect();
    format!("{}->{rhs}", lhs.join(","))
}

/// Renders an [`FdSet`] as a sorted JSON array of canonical FD strings:
/// byte-identical sets compare equal as strings.
pub fn render_fds(fds: &FdSet) -> String {
    let mut rendered: Vec<String> = fds.iter().map(|fd| render_fd(&fd.lhs, fd.rhs)).collect();
    rendered.sort_unstable();
    let quoted: Vec<String> = rendered.iter().map(|s| json_string(s)).collect();
    format!("[{}]", quoted.join(","))
}

fn render_result(result: &JobResult) -> String {
    let mut fields: Vec<(&str, JsonValue)> = vec![
        ("job", JsonValue::Num(result.job as f64)),
        ("wall_ms", JsonValue::Num(result.wall.as_secs_f64() * 1e3)),
    ];
    match &result.outcome {
        JobOutcome::Discovered { version, fds, termination, from_cache } => {
            fields.push(("version", JsonValue::Num(*version as f64)));
            fields.push(("termination", JsonValue::Str(termination.as_str().to_owned())));
            fields.push(("from_cache", JsonValue::Bool(*from_cache)));
            fields.push(("fd_count", JsonValue::Num(fds.len() as f64)));
            fields.push(("fds", JsonValue::Raw(render_fds(fds))));
        }
        JobOutcome::Validated { version, holds } => {
            fields.push(("version", JsonValue::Num(*version as f64)));
            fields.push(("holds", JsonValue::Bool(*holds)));
        }
        JobOutcome::Keys { version, keys, fd_count } => {
            let rendered: Vec<String> = keys
                .iter()
                .map(|k| {
                    let attrs: Vec<String> = k.iter().map(|a| a.to_string()).collect();
                    json_string(&attrs.join(","))
                })
                .collect();
            fields.push(("version", JsonValue::Num(*version as f64)));
            fields.push(("fd_count", JsonValue::Num(*fd_count as f64)));
            fields.push(("keys", JsonValue::Raw(format!("[{}]", rendered.join(",")))));
        }
        JobOutcome::DeltaApplied { version, rows, rows_inserted, rows_deleted } => {
            fields.push(("version", JsonValue::Num(*version as f64)));
            fields.push(("rows", JsonValue::Num(*rows as f64)));
            fields.push(("rows_inserted", JsonValue::Num(*rows_inserted as f64)));
            fields.push(("rows_deleted", JsonValue::Num(*rows_deleted as f64)));
        }
        JobOutcome::Cancelled { reason } => {
            fields.push(("cancelled", JsonValue::Bool(true)));
            fields.push(("reason", JsonValue::Str(reason.as_str().to_owned())));
        }
        JobOutcome::Failed { error } => return err_line(error),
    }
    if let Some(snapshot) = &result.telemetry {
        // The snapshot serializer pretty-prints; the line protocol demands
        // exactly one line per response, so strip inter-token whitespace.
        fields.push(("telemetry", JsonValue::Raw(compact_json(&snapshot.to_json()))));
    }
    ok_object(&fields)
}

/// Compacts pretty-printed JSON to a single line: drops all whitespace
/// outside string literals (string contents, including escapes, pass
/// through untouched).
fn compact_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else {
            match c {
                '"' => {
                    in_str = true;
                    out.push(c);
                }
                c if c.is_whitespace() => {}
                c => out.push(c),
            }
        }
    }
    out
}

/// `Some(error line)` when the observability verbs cannot be served:
/// feature-off builds compile the plane away entirely; feature-on servers
/// may still run without one.
fn metrics_unavailable(server: &Server) -> Option<String> {
    if !fd_telemetry::compiled() {
        return Some(err_line("telemetry disabled: rebuild with --features telemetry"));
    }
    if server.metrics_plane().is_none() {
        return Some(err_line("metrics plane not enabled: serve with a metrics interval"));
    }
    None
}

/// The `subscribe [n] [from=N]` streaming loop: one JSON line per window,
/// pushed as the sampler publishes them. Runs on the connection's thread;
/// returns to the command loop after `n` windows (or streams until the
/// plane stops / the client disconnects when no count is given).
fn serve_subscribe<W: Write>(
    server: &Server,
    tokens: &[&str],
    writer: &mut W,
) -> std::io::Result<()> {
    let mut count: Option<u64> = None;
    let mut from: Option<u64> = None;
    for token in &tokens[1..] {
        if let Some(value) = token.strip_prefix("from=") {
            match value.parse::<u64>() {
                Ok(v) => from = Some(v),
                Err(_) => {
                    writeln!(writer, "{}", err_line("subscribe: from= needs an integer"))?;
                    return writer.flush();
                }
            }
        } else {
            match token.parse::<u64>() {
                Ok(v) => count = Some(v),
                Err(_) => {
                    writeln!(
                        writer,
                        "{}",
                        err_line(&format!("subscribe: bad argument '{token}'"))
                    )?;
                    return writer.flush();
                }
            }
        }
    }
    if let Some(err) = metrics_unavailable(server) {
        writeln!(writer, "{err}")?;
        return writer.flush();
    }
    let plane = server.metrics_plane().expect("checked above");
    // Default: live windows only (published after this call); `from=N`
    // replays retained history first.
    let mut next = from.map_or_else(|| plane.latest_seq() + 1, |f| f.max(1));
    let mut sent = 0u64;
    while count.is_none_or(|c| sent < c) {
        let Some(window) = plane.wait_for(next) else {
            // Server shutting down: end the stream cleanly.
            break;
        };
        writeln!(writer, "{}", render_window(&window))?;
        writer.flush()?;
        next = window.seq + 1;
        sent += 1;
    }
    Ok(())
}

/// Renders `{"key":value}` from pre-rendered value strings.
fn render_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}:{v}", json_string(k))).collect();
    format!("{{{}}}", body.join(","))
}

fn gauges_object(gauges: &[(String, f64)]) -> String {
    let fields: Vec<(String, String)> =
        gauges.iter().map(|(k, v)| (k.clone(), json_number(*v))).collect();
    render_object(&fields)
}

/// One `subscribe` stream line: the window's identity, its counter deltas,
/// and per-second rates over the window's own duration.
fn render_window(window: &Window) -> String {
    let secs = window.duration.as_secs_f64();
    let counters: Vec<(String, String)> =
        window.delta.counters.iter().map(|(k, v)| (k.clone(), json_number(*v as f64))).collect();
    let rates: Vec<(String, String)> = window
        .delta
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), json_number(if secs > 0.0 { *v as f64 / secs } else { 0.0 })))
        .collect();
    ok_object(&[
        ("window", JsonValue::Bool(true)),
        ("seq", JsonValue::Num(window.seq as f64)),
        ("unix_ms", JsonValue::Num(window.unix_ms as f64)),
        ("window_ms", JsonValue::Num(window.duration.as_secs_f64() * 1e3)),
        ("gauges", JsonValue::Raw(gauges_object(&window.gauges))),
        ("counters", JsonValue::Raw(render_object(&counters))),
        ("rates", JsonValue::Raw(render_object(&rates))),
    ])
}

/// The `metrics` reply: the fold of every retained window — counter sums
/// and rates over the covered wall time, histogram quantiles, the newest
/// gauges, and the slow-job ring.
fn render_metrics(server: &Server) -> String {
    let plane = server.metrics_plane().expect("caller checked metrics_unavailable");
    let agg = plane.aggregate();
    let counters: Vec<(String, String)> =
        agg.counters.iter().map(|(k, v)| (k.clone(), json_number(*v as f64))).collect();
    let rates: Vec<(String, String)> =
        agg.rates().iter().map(|(k, v)| (k.clone(), json_number(*v))).collect();
    let quantiles: Vec<(String, String)> = agg
        .histograms
        .iter()
        .map(|(k, h)| {
            (
                k.clone(),
                format!(
                    "{{\"p50\":{},\"p95\":{},\"p99\":{}}}",
                    json_number(h.quantile(0.5)),
                    json_number(h.quantile(0.95)),
                    json_number(h.quantile(0.99))
                ),
            )
        })
        .collect();
    let slow: Vec<String> = plane
        .slow_jobs()
        .iter()
        .map(|e| {
            format!(
                "{{\"job\":{},\"dataset\":{},\"wall_ms\":{}}}",
                e.job,
                json_string(&e.dataset),
                json_number(e.wall.as_secs_f64() * 1e3)
            )
        })
        .collect();
    ok_object(&[
        ("windows", JsonValue::Num(agg.windows as f64)),
        ("seq_first", JsonValue::Num(agg.seq_first as f64)),
        ("seq_last", JsonValue::Num(agg.seq_last as f64)),
        ("span_ms", JsonValue::Num(agg.duration.as_secs_f64() * 1e3)),
        ("gauges", JsonValue::Raw(gauges_object(&agg.gauges))),
        ("counters", JsonValue::Raw(render_object(&counters))),
        ("rates", JsonValue::Raw(render_object(&rates))),
        ("quantiles", JsonValue::Raw(render_object(&quantiles))),
        ("slow_jobs", JsonValue::Raw(format!("[{}]", slow.join(",")))),
    ])
}

/// The `trace <job>` reply: the retained span tree, spans in entry order
/// with parent indices (`-1` for roots).
fn render_trace(entry: &TraceEntry) -> String {
    let spans: Vec<String> = entry
        .trace
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            format!(
                "{{\"id\":{i},\"parent\":{},\"name\":{},\"start_us\":{},\"wall_us\":{}}}",
                s.parent.map_or(-1, |p| p as i64),
                json_string(s.name),
                s.start_ns / 1_000,
                s.wall_ns / 1_000
            )
        })
        .collect();
    let root_wall_ms =
        entry.trace.root().map_or(0.0, |r| r.wall_ns as f64 / 1e6);
    ok_object(&[
        ("job", JsonValue::Num(entry.job as f64)),
        ("dataset", JsonValue::Str(entry.dataset.clone())),
        ("wall_ms", JsonValue::Num(entry.wall.as_secs_f64() * 1e3)),
        ("root_wall_ms", JsonValue::Num(root_wall_ms)),
        ("dropped", JsonValue::Num(entry.trace.dropped as f64)),
        ("spans", JsonValue::Raw(format!("[{}]", spans.join(",")))),
    ])
}

enum JsonValue {
    Bool(bool),
    Num(f64),
    Str(String),
    /// Pre-rendered JSON (arrays, nested objects) spliced in verbatim.
    Raw(String),
}

fn ok_object(fields: &[(&str, JsonValue)]) -> String {
    let mut out = String::from("{\"ok\":true");
    for (key, value) in fields {
        out.push(',');
        out.push_str(&json_string(key));
        out.push(':');
        match value {
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(n) => out.push_str(&json_number(*n)),
            JsonValue::Str(s) => out.push_str(&json_string(s)),
            JsonValue::Raw(r) => out.push_str(r),
        }
    }
    out.push('}');
    out
}

fn err_line(error: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", json_string(error))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerConfig;
    use fd_relation::Relation;

    fn tiny_server() -> Server {
        let server = Server::start(ServerConfig::default());
        let relation = Relation::from_encoded_columns(
            "tiny",
            vec!["a".into(), "b".into(), "c".into()],
            vec![vec![0, 1, 2, 3], vec![0, 0, 1, 1], vec![0, 0, 1, 1]],
        );
        server.register_relation("tiny", relation).expect("register");
        server
    }

    #[test]
    fn discover_line_returns_sorted_fds() {
        let server = tiny_server();
        let session = server.session();
        let response = handle_command(&server, &session, &["discover", "tiny"]);
        assert!(response.starts_with("{\"ok\":true"), "{response}");
        assert!(response.contains("\"termination\":\"converged\""), "{response}");
        // b and c determine each other on this table.
        assert!(response.contains("\"1->2\""), "{response}");
        assert!(response.contains("\"2->1\""), "{response}");
    }

    #[test]
    fn validate_and_keys_lines() {
        let server = tiny_server();
        let session = server.session();
        let holds = handle_command(&server, &session, &["validate", "tiny", "0", "1"]);
        assert!(holds.contains("\"holds\":true"), "{holds}");
        let fails = handle_command(&server, &session, &["validate", "tiny", "1", "0"]);
        assert!(fails.contains("\"holds\":false"), "{fails}");
        let keys = handle_command(&server, &session, &["keys", "tiny"]);
        assert!(keys.contains("\"keys\":[\"0\"]"), "{keys}");
    }

    #[test]
    fn submit_wait_cancel_roundtrip() {
        let server = tiny_server();
        let session = server.session();
        let submitted = handle_command(&server, &session, &["submit", "keys", "tiny"]);
        assert!(submitted.contains("\"job\":"), "{submitted}");
        let job: u64 = submitted
            .split("\"job\":")
            .nth(1)
            .and_then(|s| s.trim_end_matches('}').parse().ok())
            .expect("job id");
        let waited = handle_command(&server, &session, &["wait", &job.to_string()]);
        assert!(waited.contains("\"keys\":"), "{waited}");
        // Cancelling a finished job reports false.
        let cancel =
            handle_command(&server, &session, &["cancel", &job.to_string()]);
        assert!(cancel.contains("\"cancelled\":false"), "{cancel}");
    }

    #[test]
    fn errors_are_json_lines() {
        let server = tiny_server();
        let session = server.session();
        let unknown = handle_command(&server, &session, &["discover", "nope"]);
        assert!(unknown.starts_with("{\"ok\":false"), "{unknown}");
        let bad = handle_command(&server, &session, &["frobnicate"]);
        assert!(bad.contains("unknown command"), "{bad}");
        let empty_delta = handle_command(&server, &session, &["delta", "tiny"]);
        assert!(empty_delta.contains("need delete= and/or insert="), "{empty_delta}");
    }

    #[test]
    fn serve_lines_speaks_newline_json(){
        let server = tiny_server();
        let input = b"keys tiny\nstats\nquit\n";
        let mut output = Vec::new();
        serve_lines(&server, &input[..], &mut output).expect("serve");
        let text = String::from_utf8(output).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"keys\":"), "{text}");
        assert!(lines[1].contains("\"jobs_completed\":"), "{text}");
        assert!(lines[2].contains("\"bye\":true"), "{text}");
    }

    #[test]
    fn compact_json_preserves_strings() {
        assert_eq!(
            compact_json("{\n  \"a b\": 1,\n  \"c\": \"x \\\" y\"\n}"),
            "{\"a b\":1,\"c\":\"x \\\" y\"}"
        );
    }

    #[cfg(feature = "telemetry")]
    #[test]
    fn telemetry_carrying_replies_stay_single_line() {
        use crate::metrics::MetricsConfig;
        // Sole test in this crate flipping the global telemetry flag; a
        // shared lock becomes necessary the moment a second one appears.
        let server = Server::start(ServerConfig {
            metrics: Some(MetricsConfig {
                interval: std::time::Duration::from_secs(3600),
                ..Default::default()
            }),
            ..ServerConfig::default()
        });
        let relation = Relation::from_encoded_columns(
            "tiny",
            vec!["a".into(), "b".into()],
            vec![vec![0, 1, 2], vec![0, 0, 1]],
        );
        server.register_relation("tiny", relation).expect("register");
        let session = server.session();
        let reply = handle_command(&server, &session, &["discover", "tiny"]);
        fd_telemetry::set_enabled(false);
        assert!(reply.contains("\"telemetry\":{"), "armed server attaches the snapshot: {reply}");
        assert!(!reply.contains('\n'), "line protocol demands one line: {reply}");
    }
}
