//! The serve workload: an in-process `fd_server::Server` driven through the
//! line protocol (`protocol::handle_command`) by two tenants in a closed
//! loop, with row deltas beside the reads.
//!
//! Only tenant 1 sends deltas, so each dataset's sequence of versions is a
//! function of the seed alone. After the loop the benchmark rebuilds every
//! version itself, through the same public CSV, dictionary and delta calls
//! the catalog uses, and checks every reply against it.

use crate::batch::{tane, Layers};
use crate::input::{self, mean, median, quantile, Dataset, Rng, WorkDir};
use crate::json::Json;
use crate::replay::replay;
use crate::{Args, Outcome};
use eulerfd::{EulerFd, EulerFdConfig};
use fd_core::{Accuracy, AttrId, AttrSet};
use fd_relation::{read_csv_file_with_dictionaries, CsvOptions, NullLabeling, Relation, RowId};
use fd_server::protocol::{handle_command, render_fds};
use fd_server::{JobOutcome, Server, ServerConfig, Session};
use std::collections::BTreeMap;
use std::time::Instant;

const WORKERS: usize = 2;
/// Server start-ups behind `setup_s`; the last one serves the loop.
const SETUPS: usize = 3;
/// `(dataset, rows)`: a lineitem slice whose registration (an all-pairs
/// exact cover) dominates set-up, and the full-size abalone stand-in.
const DATASETS: [(&str, usize); 2] = [("lineitem", 10_000), ("abalone", 4_177)];
/// `th_ncover` values, with how often each occurs per 20 discovers. Four
/// values make both cache hits and re-runs common; the default carries most
/// weight so that hits stay the majority between invalidating deltas.
const TH_NCOVER: [(f64, usize); 4] = [(0.01, 11), (0.02, 3), (0.05, 3), (0.1, 3)];
/// Rows deleted, and rows inserted, per delta, as a share of the dataset.
const DELTA_FRAC: f64 = 0.005;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Discover,
    Validate,
    Delta,
}

/// One protocol line as the client saw it.
struct Op {
    kind: Kind,
    ds: usize,
    /// `th_ncover` of a discover line.
    th: f64,
    traced: bool,
    client_ms: f64,
    ok: bool,
    from_cache: bool,
    /// Traced runs only: the split of `client_ms`.
    split: Option<Split>,
}

#[derive(Clone, Copy)]
struct Split {
    submit_ms: f64,
    queue_ms: f64,
    exec_ms: f64,
    render_ms: f64,
    reply_bytes: usize,
}

/// One applied delta: deleted row ids, then inserted raw rows.
type Delta = (Vec<RowId>, Vec<Vec<String>>);

/// What the replies claimed, keyed for the post-loop checks.
#[derive(Clone, Default)]
pub struct Claims {
    /// `(dataset, version, th_ncover bits)` → digest of the rendered FD
    /// array (the arrays themselves would inflate this process's peak RSS).
    discovered: BTreeMap<(usize, u64, u64), u64>,
    /// `(dataset, version, lhs, rhs, holds)`.
    validated: Vec<(usize, u64, Vec<AttrId>, AttrId, bool)>,
    /// Per dataset, the deltas in version order.
    deltas: Vec<Vec<Delta>>,
    errors: Vec<String>,
}

impl Claims {
    fn discovered(&mut self, key: (usize, u64, u64), fds: u64) {
        match self.discovered.get(&key) {
            Some(seen) if *seen != fds => self
                .errors
                .push(format!("two discover replies differ at {key:?}")),
            Some(_) => {}
            None => {
                self.discovered.insert(key, fds);
            }
        }
    }

    fn merge(&mut self, other: Claims) {
        for (key, fds) in other.discovered {
            self.discovered(key, fds);
        }
        self.validated.extend(other.validated);
        for (ds, list) in other.deltas.into_iter().enumerate() {
            if !list.is_empty() {
                self.deltas[ds] = list;
            }
        }
        self.errors.extend(other.errors);
    }
}

/// Per-tenant client state.
struct Client<'a> {
    server: &'a Server,
    session: Session,
    rng: Rng,
    tenant: usize,
    schedule: Vec<(Kind, usize)>,
    th_schedule: Vec<f64>,
    data: &'a [Dataset],
    /// Tenant 1's view of each dataset: current version and row count, and
    /// the next held-back row to insert.
    version: Vec<u64>,
    rows: Vec<usize>,
    next_insert: Vec<usize>,
    claims: Claims,
    ops: Vec<Op>,
}

impl Client<'_> {
    /// The next `(kind, dataset)`. Each tenant works through seeded
    /// shuffles of a fixed block, so the mix is exact per block: tenant 1
    /// sends 55% discover, 25% validate and 20% delta, tenant 2 65% discover
    /// and 35% validate, each half to either dataset.
    fn next_op(&mut self) -> (Kind, usize) {
        if self.schedule.is_empty() {
            let counts = if self.tenant == 1 {
                [11, 5, 4]
            } else {
                [13, 7, 0]
            };
            for ds in 0..self.data.len() {
                for (kind, n) in [Kind::Discover, Kind::Validate, Kind::Delta]
                    .into_iter()
                    .zip(counts)
                {
                    self.schedule.extend(std::iter::repeat_n((kind, ds), n));
                }
            }
            self.rng.shuffle(&mut self.schedule);
        }
        self.schedule.pop().expect("refilled above")
    }

    fn next_th(&mut self) -> f64 {
        if self.th_schedule.is_empty() {
            for (th, n) in TH_NCOVER {
                self.th_schedule.extend(std::iter::repeat_n(th, n));
            }
            self.rng.shuffle(&mut self.th_schedule);
        }
        self.th_schedule.pop().expect("refilled above")
    }

    fn next_line(&mut self) -> (Kind, usize, Vec<String>, f64) {
        let (kind, ds) = self.next_op();
        let name = self.data[ds].name.clone();
        let cols = self.data[ds].cols;
        match kind {
            Kind::Discover => {
                let th = self.next_th();
                (
                    kind,
                    ds,
                    vec!["discover".into(), name, format!("th_ncover={th}")],
                    th,
                )
            }
            Kind::Validate => {
                let rhs = self.rng.below(cols);
                let mut lhs: Vec<usize> = Vec::new();
                for _ in 0..1 + self.rng.below(2) {
                    let a = self.rng.below(cols);
                    if a != rhs && !lhs.contains(&a) {
                        lhs.push(a);
                    }
                }
                lhs.sort_unstable();
                let lhs = if lhs.is_empty() {
                    "-".to_owned()
                } else {
                    lhs.iter()
                        .map(usize::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                };
                (
                    kind,
                    ds,
                    vec!["validate".into(), name, lhs, rhs.to_string()],
                    0.0,
                )
            }
            Kind::Delta => {
                let k = ((self.rows[ds] as f64 * DELTA_FRAC) as usize).max(1);
                let mut deletes: Vec<usize> = Vec::with_capacity(k);
                while deletes.len() < k {
                    let t = self.rng.below(self.rows[ds]);
                    if !deletes.contains(&t) {
                        deletes.push(t);
                    }
                }
                deletes.sort_unstable();
                let pool = &self.data[ds].held_back;
                let inserts: Vec<&Vec<String>> = (0..k)
                    .map(|i| &pool[(self.next_insert[ds] + i) % pool.len()])
                    .collect();
                self.next_insert[ds] += k;
                let deletes = deletes
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                let inserts = inserts
                    .iter()
                    .map(|r| r.join("|"))
                    .collect::<Vec<_>>()
                    .join(";");
                (
                    kind,
                    ds,
                    vec![
                        "delta".into(),
                        name,
                        format!("delete={deletes}"),
                        format!("insert={inserts}"),
                    ],
                    0.0,
                )
            }
        }
    }

    /// Sends one line, untraced (one `handle_command`) or traced (`submit`,
    /// `Session::wait`, then `wait` on the finished job).
    fn send(&mut self, traced: bool) {
        let (kind, ds, tokens, th) = self.next_line();
        let tokens: Vec<&str> = tokens.iter().map(String::as_str).collect();
        let t0 = Instant::now();
        let (reply, split) = if traced {
            let mut submit = vec!["submit"];
            submit.extend_from_slice(&tokens);
            let ack = handle_command(self.server, &self.session, &submit);
            let t1 = Instant::now();
            let job = Json::parse(&ack)
                .ok()
                .and_then(|j| j.get("job").and_then(Json::as_f64));
            match job {
                Some(job) => {
                    let result = self.session.wait(job as u64);
                    let t2 = Instant::now();
                    let reply =
                        handle_command(self.server, &self.session, &["wait", &job.to_string()]);
                    let t3 = Instant::now();
                    let exec_ms = result.wall.as_secs_f64() * 1e3;
                    let split = Split {
                        submit_ms: ms(t1 - t0),
                        queue_ms: ms(t2 - t1) - exec_ms,
                        exec_ms,
                        render_ms: ms(t3 - t2),
                        reply_bytes: reply.len(),
                    };
                    if let JobOutcome::Failed { error } = &result.outcome {
                        eprintln!("job failed: {error}");
                    }
                    (reply, Some(split))
                }
                None => (ack, None),
            }
        } else {
            (handle_command(self.server, &self.session, &tokens), None)
        };
        let client_ms = ms(t0.elapsed());
        let mut op = Op {
            kind,
            ds,
            th,
            traced,
            client_ms,
            ok: false,
            from_cache: false,
            split,
        };
        self.record(&mut op, &tokens, &reply, th);
        self.ops.push(op);
    }

    /// Parses a reply into the claims the post-loop checks verify.
    fn record(&mut self, op: &mut Op, tokens: &[&str], reply: &str, th: f64) {
        let Ok(json) = Json::parse(reply) else {
            self.claims
                .errors
                .push(format!("reply is not JSON: {reply:.200}"));
            return;
        };
        op.ok = json.get("ok").and_then(Json::as_bool) == Some(true);
        if !op.ok {
            eprintln!("error reply to '{}': {reply:.200}", tokens[..2].join(" "));
            return;
        }
        let version = json.get("version").and_then(Json::as_f64).unwrap_or(-1.0) as u64;
        match op.kind {
            Kind::Discover => {
                op.from_cache = json.get("from_cache").and_then(Json::as_bool) == Some(true);
                match fds_array(reply) {
                    Some(fds) => self
                        .claims
                        .discovered((op.ds, version, th.to_bits()), digest(fds)),
                    None => self.claims.errors.push("discover reply without fds".into()),
                }
            }
            Kind::Validate => {
                let lhs: Vec<AttrId> = if tokens[2] == "-" {
                    Vec::new()
                } else {
                    tokens[2]
                        .split(',')
                        .map(|a| a.parse().expect("generated"))
                        .collect()
                };
                let holds = json.get("holds").and_then(Json::as_bool).unwrap_or(false);
                self.claims.validated.push((
                    op.ds,
                    version,
                    lhs,
                    tokens[3].parse().expect("generated"),
                    holds,
                ));
            }
            Kind::Delta => {
                if version != self.version[op.ds] + 1 {
                    self.claims.errors.push(format!(
                        "delta moved {} from version {} to {version}",
                        self.data[op.ds].name, self.version[op.ds]
                    ));
                }
                self.version[op.ds] = version;
                let rows = json.get("rows").and_then(Json::as_f64).unwrap_or(0.0) as usize;
                self.rows[op.ds] = rows;
                let deletes = tokens[2]["delete=".len()..]
                    .split(',')
                    .map(|t| t.parse().expect("generated"))
                    .collect();
                let inserts = tokens[3]["insert=".len()..]
                    .split(';')
                    .map(|r| r.split('|').map(str::to_owned).collect())
                    .collect();
                self.claims.deltas[op.ds].push((deletes, inserts));
            }
        }
    }
}

/// Client seconds of a `discover` that missed the result cache, under the
/// scheduled mix: the mean per (dataset, `th_ncover`) class, weighted by the
/// class's share of the schedule. Which classes happen to miss depends on
/// how the tenants interleave; fixing the weights keeps that out of the
/// figure. Untraced lines only.
fn miss_s(ops: &[Op]) -> f64 {
    let mut classes: BTreeMap<(usize, u64), Vec<f64>> = BTreeMap::new();
    for o in ops
        .iter()
        .filter(|o| o.ok && !o.traced && o.kind == Kind::Discover && !o.from_cache)
    {
        classes
            .entry((o.ds, o.th.to_bits()))
            .or_default()
            .push(o.client_ms / 1e3);
    }
    let (mut sum, mut weight) = (0.0, 0.0);
    for ((_, th), times) in &classes {
        let w = TH_NCOVER
            .iter()
            .find(|(t, _)| t.to_bits() == *th)
            .map_or(0, |&(_, n)| n) as f64;
        sum += w * mean(times);
        weight += w;
    }
    sum / weight
}

/// The raw `"fds":[...]` array of a discover reply, byte for byte.
fn fds_array(reply: &str) -> Option<&str> {
    let start = reply.find("\"fds\":[")? + "\"fds\":".len();
    let end = start + reply[start..].find(']')? + 1;
    Some(&reply[start..end])
}

/// A fixed-key 64-bit digest (std's SipHash with zero keys).
fn digest(s: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    s.hash(&mut h);
    h.finish()
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Starts a server and registers every dataset through the protocol.
/// Returns the server, the whole set-up time and each registration's time.
fn start(data: &[Dataset]) -> Result<(Server, f64, Vec<f64>), String> {
    let t = Instant::now();
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        job_threads: 1,
        ..Default::default()
    });
    let session = server.session();
    let mut register_s = Vec::new();
    for d in data {
        let r = Instant::now();
        let reply = handle_command(
            &server,
            &session,
            &["register", &d.name, &d.path.display().to_string()],
        );
        register_s.push(r.elapsed().as_secs_f64());
        if !reply.contains("\"ok\":true") {
            return Err(format!("register {} failed: {reply}", d.name));
        }
    }
    Ok((server, t.elapsed().as_secs_f64(), register_s))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create(&args.workload)?;
    let data: Vec<Dataset> = DATASETS
        .iter()
        .map(|&(name, rows)| input::generate(name, args.scaled(rows), args.seed, &work.0))
        .collect::<Result<_, _>>()?;
    let mut out = Outcome::new(data.iter().map(Dataset::provenance).collect(), 1);

    let (mut setups, mut setup_refs) = (Vec::new(), Vec::new());
    let mut registers: Vec<Vec<f64>> = vec![Vec::new(); data.len()];
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        setup_refs.push(input::reference_s()?);
        let (s, setup_s, reg) = start(&data)?;
        setups.push(setup_s);
        for (all, r) in registers.iter_mut().zip(reg) {
            all.push(r);
        }
        server = Some(s);
    }
    let server = server.expect("SETUPS > 0");

    let Loop {
        ops,
        mut claims,
        loop_s,
        traced_s,
        refs,
    } = closed_loop(&server, &data, args, &input::reference_s)?;
    let peak_rss_mb = input::peak_rss_mb();
    out.attempted = ops.len() as u64;
    out.failed = ops.iter().filter(|o| !o.ok).count() as u64;

    // Untimed tail: a final keys and discover per dataset, then every claim
    // is checked against the benchmark's own replay of each version.
    let finals = finish(&server, &data, &mut claims)?;
    server.shutdown();
    let accuracy = verify(&data, &mut claims, &finals)?;
    for e in &claims.errors {
        out.error(e);
    }

    // Client-observed times come from untraced lines only.
    let kind_ms = |kind: Kind, f: &dyn Fn(&Op) -> bool| -> Vec<f64> {
        ops.iter()
            .filter(|o| o.ok && !o.traced && o.kind == kind && f(o))
            .map(|o| o.client_ms)
            .collect()
    };
    let discovers = kind_ms(Kind::Discover, &|_| true);
    let misses = kind_ms(Kind::Discover, &|o| !o.from_cache);
    let validates = kind_ms(Kind::Validate, &|_| true);
    let deltas = kind_ms(Kind::Delta, &|_| true);
    out.samples("discover_ms", discovers.len());
    out.samples("discover_s", misses.len());
    out.samples("validate_ms", validates.len());
    out.samples("delta_ms", deltas.len());

    // Rates over the untraced epochs, and the host's speed while they ran.
    let untraced_s = loop_s - traced_s;
    let untraced_ops = ops.iter().filter(|o| !o.traced).count() as f64;
    let ref_s = mean(&refs);
    let discover_s = miss_s(&ops);
    let ops_per_s = untraced_ops / untraced_s;
    out.raw("setup_s", &setups);
    out.raw("setup_reference_s", &setup_refs);
    out.raw("reference_s", &refs);
    out.raw("discover_s", &[discover_s]);
    out.raw("ops_per_s", &[ops_per_s]);
    if args.trace {
        out.metric("discover_s", discover_s);
        out.metric("ops_per_s", ops_per_s);
        out.metric("reference_s", ref_s);
        out.metric("client.discover_ms.p50", median(&discovers));
        out.metric("client.discover_ms.p90", quantile(&discovers, 0.9));
        out.metric("client.validate_ms.p50", median(&validates));
        out.metric("client.validate_ms.p90", quantile(&validates, 0.9));
        out.metric("client.delta_ms.p50", median(&deltas));
        out.metric("client.delta_ms.p90", quantile(&deltas, 0.9));
        let traced = ops.len() as f64 - untraced_ops;
        out.metric(
            "trace_overhead_pct",
            (ops_per_s / (traced / traced_s) - 1.0) * 100.0,
        );
        out.metric("trace.untraced_ops_per_s", ops_per_s);
        out.metric("trace.traced_ops_per_s", traced / traced_s);
        traced_metrics(&ops, &data, &registers, traced_s, &mut out)?;
    } else {
        out.metric("setup_s", input::setup_s(&setups, &setup_refs));
        out.metric("discover_norm", discover_s / ref_s);
        out.metric("f1", accuracy);
        out.metric("ops_per_ref", ops_per_s * ref_s);
        out.metric("peak_rss_mb", peak_rss_mb);
    }
    Ok(out)
}

/// The closed loop as it ran.
struct Loop {
    ops: Vec<Op>,
    claims: Claims,
    /// Client time of all epochs, and of the traced ones.
    loop_s: f64,
    traced_s: f64,
    /// The reference kernel's time before each epoch.
    refs: Vec<f64>,
}

/// Two tenants, one client thread each, until `--seconds` of client time
/// pass. The time is cut into epochs of about two seconds; before each, with
/// the clients stopped, the reference kernel measures the host's current
/// speed. In a traced run the epochs alternate untraced and traced, so both
/// modes see the same server state.
fn closed_loop(
    server: &Server,
    data: &[Dataset],
    args: &Args,
    reference: &dyn Fn() -> Result<f64, String>,
) -> Result<Loop, String> {
    let mut clients: Vec<Client> = [1usize, 2]
        .into_iter()
        .map(|tenant| Client {
            server,
            session: server.session(),
            rng: Rng::new(args.seed, tenant as u64),
            tenant,
            schedule: Vec::new(),
            th_schedule: Vec::new(),
            data,
            version: vec![0; data.len()],
            rows: data.iter().map(|d| d.rows).collect(),
            next_insert: vec![0; data.len()],
            claims: Claims {
                deltas: vec![Vec::new(); data.len()],
                ..Default::default()
            },
            ops: Vec::new(),
        })
        .collect();
    let epochs = ((args.seconds / 2.0).round() as usize).max(if args.trace { 2 } else { 1 });
    let epoch_s = args.seconds.max(0.1) / epochs as f64;
    let (mut loop_s, mut traced_s, mut refs) = (0.0, 0.0, Vec::new());
    for epoch in 0..epochs {
        refs.push(reference()?);
        let traced = args.trace && epoch % 2 == 1;
        let started = Instant::now();
        std::thread::scope(|scope| {
            for client in clients.iter_mut() {
                scope.spawn(move || {
                    while started.elapsed().as_secs_f64() < epoch_s {
                        client.send(traced);
                    }
                });
            }
        });
        let wall = started.elapsed().as_secs_f64();
        loop_s += wall;
        if traced {
            traced_s += wall;
        }
    }
    let mut result = Loop {
        ops: Vec::new(),
        claims: Claims {
            deltas: vec![Vec::new(); data.len()],
            ..Default::default()
        },
        loop_s,
        traced_s,
        refs,
    };
    for client in clients {
        result.ops.extend(client.ops);
        result.claims.merge(client.claims);
    }
    Ok(result)
}

/// Sends a final `keys` and default `discover` per dataset; returns the
/// `keys` cover sizes and records the discover replies as claims.
fn finish(server: &Server, data: &[Dataset], claims: &mut Claims) -> Result<Vec<usize>, String> {
    let session = server.session();
    let mut finals = Vec::new();
    for (ds, d) in data.iter().enumerate() {
        let keys = handle_command(server, &session, &["keys", &d.name]);
        let fd_count = Json::parse(&keys)
            .ok()
            .and_then(|j| j.get("fd_count").and_then(Json::as_f64));
        let discover = handle_command(server, &session, &["discover", &d.name]);
        let version = Json::parse(&discover)
            .ok()
            .and_then(|j| j.get("version").and_then(Json::as_f64));
        match (fd_count, version, fds_array(&discover)) {
            (Some(n), Some(v), Some(fds)) => {
                claims.discovered(
                    (ds, v as u64, EulerFdConfig::default().th_ncover.to_bits()),
                    digest(fds),
                );
                finals.push(n as usize);
            }
            _ => {
                return Err(format!(
                    "final keys/discover on {} failed: {keys:.200} {discover:.200}",
                    d.name
                ))
            }
        }
    }
    Ok(finals)
}

/// Replays every dataset version and checks each claim against it: discover
/// replies byte-equal to a local EulerFD run, validate replies equal to
/// `fd_holds`, and the final `keys` cover size equal to Tane's. Returns the
/// F1 of the final default discover replies against Tane, over both
/// datasets. Mismatches land in `claims.errors`.
fn verify(data: &[Dataset], claims: &mut Claims, finals: &[usize]) -> Result<f64, String> {
    let local = |relation: &Relation, th_bits: u64| {
        let config = EulerFdConfig {
            th_ncover: f64::from_bits(th_bits),
            ..Default::default()
        };
        EulerFd::with_config(config.with_threads(1))
            .discover_with_report(relation)
            .0
    };
    let (mut tp, mut found, mut truth_n) = (0usize, 0usize, 0usize);
    for (ds, d) in data.iter().enumerate() {
        let (mut relation, mut dicts, _) =
            read_csv_file_with_dictionaries(&d.path, &CsvOptions::default())
                .map_err(|e| e.to_string())?;
        let mut versions = vec![relation.clone()];
        for (deletes, inserts) in &claims.deltas[ds] {
            let encoded: Vec<Vec<u32>> = inserts
                .iter()
                .map(|row| {
                    let row: Vec<Option<&str>> = row
                        .iter()
                        .map(|v| (!v.is_empty()).then_some(v.as_str()))
                        .collect();
                    dicts.encode_nullable_row(&row, NullLabeling::Shared)
                })
                .collect();
            relation.apply_delta(&encoded, deletes);
            versions.push(relation.clone());
        }
        for (_, version, lhs, rhs, holds) in claims.validated.iter().filter(|c| c.0 == ds) {
            let ok = versions
                .get(*version as usize)
                .map(|r| r.fd_holds(&AttrSet::from_attrs(lhs.iter().copied()), *rhs));
            if ok != Some(*holds) {
                claims.errors.push(format!(
                    "validate {lhs:?}->{rhs} on {} v{version} answered {holds}",
                    d.name
                ));
            }
        }
        let keys: Vec<(usize, u64, u64)> = claims
            .discovered
            .range((ds, 0, 0)..=(ds, u64::MAX, u64::MAX))
            .map(|(k, _)| *k)
            .collect();
        let rendered = par_map(&keys, |&(_, v, th)| {
            versions
                .get(v as usize)
                .map(|r| digest(&render_fds(&local(r, th))))
        });
        for (key, local) in keys.iter().zip(rendered) {
            if local.as_ref() != Some(&claims.discovered[key]) {
                claims.errors.push(format!(
                    "discover reply for {} v{} th={} differs from a local run",
                    d.name,
                    key.1,
                    f64::from_bits(key.2)
                ));
            }
        }
        let last = versions.last().expect("version 0 exists");
        let truth = tane(last)?;
        if truth.len() != finals[ds] {
            claims.errors.push(format!(
                "keys on {} reports {} FDs, Tane finds {}",
                d.name,
                finals[ds],
                truth.len()
            ));
        }
        let final_fds = local(last, EulerFdConfig::default().th_ncover.to_bits());
        tp += Accuracy::of(&final_fds, &truth).true_positives;
        found += final_fds.len();
        truth_n += truth.len();
    }
    let precision = tp as f64 / found.max(1) as f64;
    let recall = tp as f64 / truth_n.max(1) as f64;
    Ok(2.0 * precision * recall / (precision + recall).max(f64::MIN_POSITIVE))
}

/// `items.map(f)` on one thread per core (the checks are untimed).
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = input::nproc();
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|w| {
                let f = &f;
                scope.spawn(move || {
                    (w..items.len())
                        .step_by(n)
                        .map(|i| (i, f(&items[i])))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = parts.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

fn traced_metrics(
    ops: &[Op],
    data: &[Dataset],
    registers: &[Vec<f64>],
    traced_s: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let split = |f: &dyn Fn(&Op, &Split) -> Option<f64>| -> Vec<f64> {
        ops.iter()
            .filter_map(|o| o.split.as_ref().and_then(|s| f(o, s)))
            .collect()
    };
    let all = |f: fn(&Split) -> f64| split(&|_, s| Some(f(s)));
    let exec = |kind: Kind, cached: Option<bool>| {
        split(&|o, s| {
            (o.kind == kind && cached.is_none_or(|c| c == o.from_cache)).then_some(s.exec_ms)
        })
    };
    out.metric("protocol.submit_ms.p50", median(&all(|s| s.submit_ms)));
    out.metric("protocol.render_ms.p50", median(&all(|s| s.render_ms)));
    out.metric(
        "protocol.render_ms.p90",
        quantile(&all(|s| s.render_ms), 0.9),
    );
    out.metric(
        "protocol.reply_bytes.p50",
        median(&all(|s| s.reply_bytes as f64)),
    );
    out.metric("queue.wait_ms.p50", median(&all(|s| s.queue_ms)));
    out.metric("queue.wait_ms.p90", quantile(&all(|s| s.queue_ms), 0.9));
    out.metric(
        "exec.discover_miss_ms.p50",
        median(&exec(Kind::Discover, Some(false))),
    );
    out.metric(
        "exec.discover_miss_ms.p90",
        quantile(&exec(Kind::Discover, Some(false)), 0.9),
    );
    out.metric(
        "exec.discover_hit_ms.p50",
        median(&exec(Kind::Discover, Some(true))),
    );
    out.metric("exec.delta_ms.p50", median(&exec(Kind::Delta, None)));
    out.metric("exec.delta_ms.p90", quantile(&exec(Kind::Delta, None), 0.9));
    out.metric("exec.validate_ms.p50", median(&exec(Kind::Validate, None)));
    out.metric(
        "exec.busy_frac",
        all(|s| s.exec_ms).iter().sum::<f64>() / 1e3 / (WORKERS as f64 * traced_s),
    );
    let discovers = ops
        .iter()
        .filter(|o| o.ok && o.kind == Kind::Discover)
        .count();
    let hits = ops
        .iter()
        .filter(|o| o.ok && o.kind == Kind::Discover && o.from_cache)
        .count();
    out.metric("cache.hits", hits as f64);
    out.metric("cache.discover_jobs", discovers as f64);
    out.metric("cache.hit_ratio", hits as f64 / discovers.max(1) as f64);
    for (d, reg) in data.iter().zip(registers) {
        let name = match d.name.as_str() {
            "lineitem" => "catalog.register_s.lineitem",
            _ => "catalog.register_s.abalone",
        };
        out.metric(name, median(reg));
    }

    // The EulerFD layers on this workload's datasets: replays of each
    // base version, checked against a real run like the batch replays.
    let config = EulerFdConfig::default().with_threads(1);
    let mut samples = Vec::new();
    for _ in 0..3 {
        let mut parts = Vec::new();
        for d in data {
            let t = Instant::now();
            let relation = fd_relation::read_csv_file(&d.path, &CsvOptions::default())
                .map_err(|e| e.to_string())?;
            let read_s = t.elapsed().as_secs_f64();
            let rep = replay(&relation, &config);
            let (fds, report) =
                EulerFd::with_config(config.clone()).discover_with_report(&relation);
            if let Err(e) = rep.matches(&fds, &report) {
                out.error(&format!("{}: {e}", d.name));
            }
            parts.push(Layers::of(read_s, d.csv_bytes, rep));
        }
        samples.push(Layers::sum(&parts));
    }
    Layers::report(&samples, out);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_discover_reply_is_caught() {
        let args = Args {
            workload: "serve-mixed".into(),
            seed: 7,
            seconds: 0.5,
            trace: false,
            scale: 0.03,
        };
        let work = WorkDir::create("serve-test").unwrap();
        let data: Vec<Dataset> = DATASETS
            .iter()
            .map(|&(name, rows)| {
                input::generate(name, args.scaled(rows), args.seed, &work.0).unwrap()
            })
            .collect();
        let (server, _, _) = start(&data).unwrap();
        let Loop {
            ops, mut claims, ..
        } = closed_loop(&server, &data, &args, &|| Ok(1.0)).unwrap();
        let finals = finish(&server, &data, &mut claims).unwrap();
        let reply = handle_command(&server, &server.session(), &["discover", "lineitem"]);
        server.shutdown();
        assert!(!ops.is_empty() && ops.iter().all(|o| o.ok));

        let mut clean = claims.clone();
        verify(&data, &mut clean, &finals).unwrap();
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);

        // The same reply with its first FD dropped must be reported.
        let fds = fds_array(&reply).unwrap();
        let corrupted = match fds.find("\",\"") {
            Some(i) => format!("[{}", &fds[i + 2..]),
            None => "[]".to_owned(),
        };
        let key = *claims
            .discovered
            .range((0, 0, 0)..(1, 0, 0))
            .next_back()
            .unwrap()
            .0;
        let mut corrupt = claims;
        corrupt.discovered.remove(&key);
        corrupt.discovered(key, digest(&corrupted));
        verify(&data, &mut corrupt, &finals).unwrap();
        assert!(
            corrupt
                .errors
                .iter()
                .any(|e| e.contains("differs from a local run")),
            "{:?}",
            corrupt.errors
        );
    }
}
