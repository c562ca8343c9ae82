//! The traced replay of `EulerFd::discover_with_report`.
//!
//! The program has no spans inside its sampling and inversion loops yet, so
//! the traced run rebuilds EulerFD's double cycle from the public
//! `Sampler`, `NCover` and `PCover` calls, in the order `driver.rs` makes
//! them, and timestamps each call from here. A replay only counts if it
//! reproduces `EulerFd` exactly: same FD set, same `pairs_compared`, same
//! `GR_Ncover` history (checked by the callers against a real run).

use eulerfd::{EulerFdConfig, Sampler};
use fd_core::{AttrId, AttrSet, Fd, FdSet, NCover, PCover};
use fd_relation::Relation;
use std::time::Instant;

/// Per-layer totals of one replayed discovery.
#[derive(Clone, Debug, Default)]
pub struct Replay {
    pub fds: FdSet,
    pub gr_ncover: Vec<f64>,
    pub pairs_compared: u64,
    /// `Sampler::new`: stripped partitions and the row-major mirror.
    pub build_s: f64,
    /// `initial_pass` plus every `sample_next`.
    pub sample_s: f64,
    /// Every `PCover::invert_batch`.
    pub invert_s: f64,
    /// Wall time of the whole replay.
    pub wall_s: f64,
    /// `sample_next` calls that sampled a cluster.
    pub steps: u64,
    pub ncover_insertions: u64,
    pub non_fds_inverted: u64,
    pub churn: u64,
    pub inversions: u64,
    /// Cycle-1 growth checks (`GR_Ncover` measurements).
    pub rounds: u64,
    /// Passes through cycle 2 (inversions under the `GR_Pcover` check).
    pub cycles: u64,
}

/// Replays unbudgeted `EulerFd` discovery on `relation` under `config`.
pub fn replay(relation: &Relation, config: &EulerFdConfig) -> Replay {
    let start = Instant::now();
    let threads = config.resolved_threads();
    let m = relation.n_attrs();
    let mut out = Replay::default();
    let mut ncover = NCover::new(m);
    let mut pcover = PCover::initialized(m);
    let mut pending: Vec<Fd> = Vec::new();

    for a in 0..m as AttrId {
        if !relation.is_constant(a) && ncover.add(Fd::new(AttrSet::empty(), a)) {
            pending.push(Fd::new(AttrSet::empty(), a));
        }
    }

    let t = Instant::now();
    let mut sampler = Sampler::new(relation, config);
    out.build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    sampler.initial_pass(relation, &mut ncover, &mut pending);
    out.sample_s += t.elapsed().as_secs_f64();

    let batch = if config.batch_factor.is_finite() {
        ((sampler.stats().clusters_total as f64 * config.batch_factor) as usize)
            .max(config.min_batch)
    } else {
        usize::MAX
    };
    let exhausted = |sampler: &mut Sampler| {
        sampler.is_exhausted() && (!config.enable_revival || sampler.revive_retired() == 0)
    };

    loop {
        // Cycle 1: sample while the negative cover keeps growing.
        loop {
            let size_before = ncover.len();
            let adds_before = ncover.insertions();
            let mut sampled_any = false;
            for _ in 0..batch {
                let t = Instant::now();
                let sampled = sampler.sample_next(relation, &mut ncover, &mut pending);
                out.sample_s += t.elapsed().as_secs_f64();
                if !sampled {
                    break;
                }
                out.steps += 1;
                sampled_any = true;
            }
            let gr = (ncover.insertions() - adds_before) as f64 / size_before.max(1) as f64;
            out.gr_ncover.push(gr);
            if gr <= config.th_ncover && sampled_any {
                break;
            }
            if exhausted(&mut sampler) {
                break;
            }
        }

        // Inversion under the cycle-2 check.
        let before_p = pcover.len();
        let gr_p = invert(&mut pcover, &mut pending, threads, &mut out) / before_p.max(1) as f64;
        out.cycles += 1;
        if config.th_pcover > 0.0 && gr_p <= config.th_pcover {
            break;
        }
        if exhausted(&mut sampler) {
            break;
        }
    }
    if !pending.is_empty() {
        invert(&mut pcover, &mut pending, threads, &mut out);
    }

    out.pairs_compared = sampler.stats().pairs_compared;
    out.ncover_insertions = ncover.insertions() as u64;
    out.rounds = out.gr_ncover.len() as u64;
    out.fds = pcover.to_fdset();
    out.wall_s = start.elapsed().as_secs_f64();
    out
}

/// One timed `invert_batch`; returns the candidates it added.
fn invert(pcover: &mut PCover, pending: &mut Vec<Fd>, threads: usize, out: &mut Replay) -> f64 {
    out.non_fds_inverted += pending.len() as u64;
    let t = Instant::now();
    let delta = pcover.invert_batch(pending, threads);
    out.invert_s += t.elapsed().as_secs_f64();
    out.inversions += 1;
    out.churn += delta.churn() as u64;
    delta.added as f64
}

impl Replay {
    /// Checks the replay against a real `EulerFd` run on the same input.
    pub fn matches(&self, fds: &FdSet, report: &eulerfd::EulerFdReport) -> Result<(), String> {
        if &self.fds != fds {
            return Err(format!(
                "replay FD set differs from EulerFd's ({} vs {} FDs)",
                self.fds.len(),
                fds.len()
            ));
        }
        if self.pairs_compared != report.sampler.pairs_compared {
            return Err(format!(
                "replay compared {} pairs, EulerFd {}",
                self.pairs_compared, report.sampler.pairs_compared
            ));
        }
        if self.gr_ncover != report.gr_ncover {
            return Err("replay GR_Ncover history differs from EulerFd's".into());
        }
        if self.inversions as usize != report.inversions {
            return Err(format!(
                "replay ran {} inversions, EulerFd {}",
                self.inversions, report.inversions
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eulerfd::EulerFd;

    #[test]
    fn replay_reproduces_eulerfd() {
        for (name, rows) in [("abalone", 1500), ("plista", 200), ("lineitem", 3000)] {
            let r = fd_relation::synth::dataset_spec(name)
                .unwrap()
                .generate(rows);
            let config = EulerFdConfig::default().with_threads(2);
            let (fds, report) = EulerFd::with_config(config.clone()).discover_with_report(&r);
            let rep = replay(&r, &config);
            rep.matches(&fds, &report)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(rep.build_s + rep.sample_s + rep.invert_s <= rep.wall_s);
        }
    }
}
