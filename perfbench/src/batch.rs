//! The batch workloads: the `fdtool discover` path, `read_csv_file` then
//! `EulerFd`, timed end to end from here.

use crate::input::{self, mean, median, quantile, Dataset, WorkDir};
use crate::replay::{replay, Replay};
use crate::{Args, Outcome};
use eulerfd::{EulerFd, EulerFdConfig, EulerFdReport};
use fd_core::{Accuracy, AttrId, AttrSet, FdSet, LhsTree};
use fd_relation::{read_csv_file, CsvOptions, Relation};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Cold iterations behind `setup_s`: one in this process (which also warms
/// it up for the timed loop) and the rest in fresh child processes.
const COLD_RUNS: usize = 3;

fn config() -> EulerFdConfig {
    EulerFdConfig::default().with_threads(input::nproc())
}

/// One end-to-end iteration: parse the CSV, then discover.
fn discover_file(
    path: &Path,
    config: &EulerFdConfig,
) -> Result<(FdSet, EulerFdReport, f64), String> {
    let t = Instant::now();
    let relation = read_csv_file(path, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let (fds, report) = EulerFd::with_config(config.clone()).discover_with_report(&relation);
    Ok((fds, report, t.elapsed().as_secs_f64()))
}

fn read(path: &Path) -> Result<Relation, String> {
    read_csv_file(path, &CsvOptions::default()).map_err(|e| e.to_string())
}

/// Runs a batch workload on `rows` rows of the synthetic `dataset`.
pub fn run(args: &Args, dataset: &str, rows: usize) -> Result<Outcome, String> {
    let work = WorkDir::create(&args.workload)?;
    let data = input::generate(dataset, args.scaled(rows), args.seed, &work.0)?;
    let config = config();
    let mut out = Outcome::new(vec![data.provenance()], config.resolved_threads());

    // The first iteration is cold; it fixes the reference answer.
    let cold_ref = input::reference_s()?;
    let (reference, ref_report, cold) = discover_file(&data.path, &config)?;
    out.attempted += 1;
    if let Err(e) = minimal_cover(&reference) {
        out.error(&e);
    }
    if ref_report.is_partial() {
        out.error("EulerFD did not converge");
    }

    if args.trace {
        traced(args, &data, &config, &reference, &ref_report, &mut out)?;
        return Ok(out);
    }

    let (mut setups, mut setup_refs) = (vec![cold], vec![cold_ref]);
    for _ in 1..COLD_RUNS {
        setup_refs.push(input::reference_s()?);
        setups.push(child_cold(&data.path, config.threads)?);
    }

    let mut walls = Vec::new();
    let mut refs = Vec::new();
    let started = Instant::now();
    for n in 0.. {
        if n >= 3 && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        refs.push(input::reference_s()?);
        out.attempted += 1;
        match discover_file(&data.path, &config) {
            Ok((fds, report, wall)) => {
                walls.push(wall);
                if fds != reference
                    || report.sampler.pairs_compared != ref_report.sampler.pairs_compared
                {
                    out.error("a repeated discovery differs from the first one");
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("iteration failed: {e}");
            }
        }
    }
    let peak_rss_mb = input::peak_rss_mb();

    // Untimed checks: the real run equals its replay, and F1 against Tane's
    // exact cover.
    let relation = read(&data.path)?;
    if let Err(e) = replay(&relation, &config).matches(&reference, &ref_report) {
        out.error(&e);
    }
    let f1 = Accuracy::of(&reference, &tane(&relation)?).f1;

    out.samples("discover_s", walls.len());
    out.raw("setup_s", &setups);
    out.raw("setup_reference_s", &setup_refs);
    out.raw("discover_s", &walls);
    out.raw("reference_s", &refs);
    // Normalised by the reference kernel timed before each iteration.
    out.metric("setup_s", input::setup_s(&setups, &setup_refs));
    out.metric("discover_norm", mean(&walls) / mean(&refs));
    out.metric("f1", f1);
    out.metric("ops_per_ref", mean(&refs) / mean(&walls));
    out.metric("peak_rss_mb", peak_rss_mb);
    Ok(out)
}

/// Checks that every FD is non-trivial and that no FD's LHS contains
/// another LHS of the same RHS. (`FdSet::is_minimal_cover` checks the same
/// pairwise, which is quadratic per RHS: minutes on batch-wide's 250k FDs.)
fn minimal_cover(fds: &FdSet) -> Result<(), String> {
    let mut by_rhs: BTreeMap<AttrId, Vec<AttrSet>> = BTreeMap::new();
    for fd in fds {
        if fd.lhs.contains(fd.rhs) {
            return Err(format!("trivial FD {fd:?}"));
        }
        by_rhs.entry(fd.rhs).or_default().push(fd.lhs);
    }
    for (rhs, mut lhss) in by_rhs {
        lhss.sort_by_key(AttrSet::len);
        let mut smaller = LhsTree::new();
        for group in lhss.chunk_by(|a, b| a.len() == b.len()) {
            if let Some(lhs) = group.iter().find(|l| smaller.contains_subset_of(l)) {
                return Err(format!("{lhs:?} -> {rhs} is not minimal"));
            }
            for &lhs in group {
                smaller.insert(lhs);
            }
        }
    }
    Ok(())
}

/// The traced run: untraced iterations alternate with replayed ones, so the
/// overhead of tracing is measured on the same input in the same process.
fn traced(
    args: &Args,
    data: &Dataset,
    config: &EulerFdConfig,
    reference: &FdSet,
    ref_report: &EulerFdReport,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut plain = Vec::new();
    let mut refs = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers: Vec<Layers> = Vec::new();
    let started = Instant::now();
    while plain.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        out.attempted += 2;
        refs.push(input::reference_s()?);
        let (fds, _, wall) = discover_file(&data.path, config)?;
        if &fds != reference {
            out.error("a repeated discovery differs from the first one");
        }
        plain.push(wall);

        let t = Instant::now();
        let relation = read(&data.path)?;
        let read_s = t.elapsed().as_secs_f64();
        let rep = replay(&relation, config);
        traced_walls.push(t.elapsed().as_secs_f64());
        if let Err(e) = rep.matches(reference, ref_report) {
            out.error(&e);
        }
        layers.push(Layers::of(read_s, data.csv_bytes, rep));
    }
    out.metric("discover_s", mean(&plain));
    out.metric("ops_per_s", 1.0 / mean(&plain));
    out.metric("reference_s", mean(&refs));
    out.metric("client.discover_ms.p50", median(&plain) * 1e3);
    out.metric("client.discover_ms.p90", quantile(&plain, 0.9) * 1e3);
    let plain_s = median(&plain);
    let traced_s = median(&traced_walls);
    out.samples("traced_iterations", traced_walls.len());
    Layers::report(&layers, out);
    // Iterations per second, so the bases read like the serve workload's.
    out.metric("trace_overhead_pct", (traced_s / plain_s - 1.0) * 100.0);
    out.metric("trace.untraced_ops_per_s", 1.0 / plain_s);
    out.metric("trace.traced_ops_per_s", 1.0 / traced_s);
    Ok(())
}

/// The batch layers of one traced discovery.
pub struct Layers {
    read_s: f64,
    csv_bytes: u64,
    rep: Replay,
}

impl Layers {
    /// Keeps a replay's figures; its FD set is dropped.
    pub fn of(read_s: f64, csv_bytes: u64, mut rep: Replay) -> Layers {
        rep.fds = FdSet::new();
        Layers {
            read_s,
            csv_bytes,
            rep,
        }
    }

    /// Sums several discoveries into one (the serve workload replays one
    /// per dataset).
    pub fn sum(parts: &[Layers]) -> Layers {
        let mut total = Layers {
            read_s: 0.0,
            csv_bytes: 0,
            rep: Default::default(),
        };
        for p in parts {
            total.read_s += p.read_s;
            total.csv_bytes += p.csv_bytes;
            let (t, r) = (&mut total.rep, &p.rep);
            t.build_s += r.build_s;
            t.sample_s += r.sample_s;
            t.invert_s += r.invert_s;
            t.wall_s += r.wall_s;
            t.steps += r.steps;
            t.pairs_compared += r.pairs_compared;
            t.ncover_insertions += r.ncover_insertions;
            t.non_fds_inverted += r.non_fds_inverted;
            t.churn += r.churn;
            t.inversions += r.inversions;
            t.rounds += r.rounds;
            t.cycles += r.cycles;
        }
        total
    }

    /// Reports the per-iteration medians of every layer metric, and the
    /// share of a traced iteration (CSV read plus replay) the layers
    /// account for.
    pub fn report(samples: &[Layers], out: &mut Outcome) {
        let med = |f: &dyn Fn(&Layers) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        let read_s = med(&|l| l.read_s);
        let build_s = med(&|l| l.rep.build_s);
        let sample_s = med(&|l| l.rep.sample_s);
        let invert_s = med(&|l| l.rep.invert_s);
        let other_s = med(&|l| l.rep.wall_s - l.rep.build_s - l.rep.sample_s - l.rep.invert_s);
        // Counts repeat exactly across iterations; the first stands for all.
        let r = &samples[0].rep;
        out.metric("csv.read_s", read_s);
        out.metric("csv.mb_per_s", samples[0].csv_bytes as f64 / 1e6 / read_s);
        out.metric("sampler.build_s", build_s);
        out.metric("sampler.sample_s", sample_s);
        out.metric("sampler.steps", r.steps as f64);
        out.metric("sampler.pairs_compared", r.pairs_compared as f64);
        out.metric("sampler.pairs_per_s", r.pairs_compared as f64 / sample_s);
        out.metric(
            "sampler.yield",
            r.ncover_insertions as f64 / (r.pairs_compared.max(1)) as f64,
        );
        out.metric("cover.invert_s", invert_s);
        out.metric("cover.non_fds_inverted", r.non_fds_inverted as f64);
        out.metric("cover.churn", r.churn as f64);
        out.metric("cover.inversions", r.inversions as f64);
        out.metric("driver.rounds", r.rounds as f64);
        out.metric("driver.cycles", r.cycles as f64);
        out.metric("driver.other_s", other_s);
        let accounted = med(&|l| {
            let r = &l.rep;
            (l.read_s + r.build_s + r.sample_s + r.invert_s) / (l.read_s + r.wall_s)
        });
        out.metric("layers.accounted_frac", accounted);
    }
}

/// `perfbench cold <csv> <threads>`: one cold iteration in a fresh process;
/// prints its wall seconds.
pub fn cold_main(args: &[String]) -> Result<(), String> {
    let [csv, threads] = args else {
        return Err("usage: perfbench cold <csv> <threads>".into());
    };
    let threads: usize = threads.parse().map_err(|_| "threads must be a number")?;
    let (_, _, wall) = discover_file(
        Path::new(csv),
        &EulerFdConfig::default().with_threads(threads),
    )?;
    println!("{wall}");
    Ok(())
}

fn child_cold(csv: &Path, threads: usize) -> Result<f64, String> {
    let out = input::child(&["cold", &csv.display().to_string(), &threads.to_string()])?;
    out.trim()
        .parse()
        .map_err(|_| format!("cold run printed '{out}'"))
}

/// Tane's exact cover, the reference for F1 and for the serve workload's
/// `keys` check. Runs after the peak RSS is read.
pub fn tane(relation: &Relation) -> Result<FdSet, String> {
    fd_baselines::Tane::new()
        .try_discover(relation)
        .ok_or_else(|| "Tane hit its memory guard".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::Fd;

    #[test]
    fn minimal_cover_agrees_with_the_pairwise_check() {
        let fd = |lhs: &[u16], rhs| Fd::new(AttrSet::from_attrs(lhs.iter().copied()), rhs);
        let good: FdSet = [fd(&[0], 2), fd(&[1, 3], 2), fd(&[], 4), fd(&[0, 1], 3)]
            .into_iter()
            .collect();
        assert!(good.is_minimal_cover() && minimal_cover(&good).is_ok());
        for bad in [fd(&[0, 3], 2), fd(&[2, 5], 2), fd(&[0, 1, 5], 3)] {
            let mut set = good.clone();
            set.insert(bad);
            assert!(!set.is_minimal_cover());
            assert!(minimal_cover(&set).is_err(), "{bad:?}");
        }
    }
}
