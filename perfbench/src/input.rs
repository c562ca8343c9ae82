//! Seeded inputs and run environment: dataset generation, CSV files, the
//! work directory, and the provenance every result records.
//!
//! The program under test never sees the seed. Each dataset is the
//! repository's shape-matched generator output; the seed relabels its
//! values. It deliberately leaves the rows and their order alone: EulerFD's
//! sampling work swings by ±25% between different row samples of the same
//! generator (25M to 38M pairs compared on lineitem-120k), which would drown
//! the changes this benchmark exists to show.

use crate::json::Json;
use fd_relation::{synth, write_csv};
use std::path::{Path, PathBuf};

/// SplitMix64: small, seedable, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A generated dataset written to CSV, plus the rows held back from it
/// (the serve workload inserts those through `delta`).
pub struct Dataset {
    pub name: String,
    pub path: PathBuf,
    pub rows: usize,
    pub cols: usize,
    pub csv_bytes: u64,
    /// Rows of the same generator that are not in the CSV, as raw strings.
    pub held_back: Vec<Vec<String>>,
}

impl Dataset {
    pub fn provenance(&self) -> Json {
        Json::obj([
            ("name", Json::str(&self.name)),
            ("rows", Json::Num(self.rows as f64)),
            ("cols", Json::Num(self.cols as f64)),
            ("csv_bytes", Json::Num(self.csv_bytes as f64)),
        ])
    }
}

/// Generates `rows` rows of the synthetic stand-in `name` and writes them to
/// `dir/<name>.csv`; the next `rows / 4` rows of the same generator are held
/// back. The seed relabels each column's values through a seeded bijection
/// (XOR with a key below the column's label range), so the CSV bytes change
/// with the seed while the rows, their order and the dependency structure
/// do not.
pub fn generate(name: &str, rows: usize, seed: u64, dir: &Path) -> Result<Dataset, String> {
    let spec = synth::dataset_spec(name).ok_or_else(|| format!("unknown dataset {name}"))?;
    let relation = spec.generate(rows + rows / 4);
    let mut rng = Rng::new(seed, 0x5eed);
    let keys: Vec<u32> = (0..relation.n_attrs() as u16)
        .map(|a| {
            let range = relation.column(a).iter().max().map_or(1, |&m| m + 1);
            rng.below(range.next_power_of_two() as usize) as u32
        })
        .collect();
    let row_of = |t: usize| -> Vec<String> {
        keys.iter()
            .enumerate()
            .map(|(a, key)| (relation.label(t as u32, a as u16) ^ key).to_string())
            .collect()
    };
    let path = dir.join(format!("{name}.csv"));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    write_csv(file, relation.column_names(), (0..rows).map(row_of), b',')
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let csv_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(Dataset {
        name: name.to_owned(),
        path,
        rows,
        cols: relation.n_attrs(),
        csv_bytes,
        held_back: (rows..relation.n_rows()).map(row_of).collect(),
    })
}

/// A per-process directory under the benchmark's own `work/`, removed when
/// dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn create(tag: &str) -> Result<WorkDir, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the program was built from, when the checkout is a git
/// repository; `"unknown"` otherwise.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Linear-interpolated quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p50/p90/p99 that has at least ten samples beyond it.
pub fn supported_percentile(samples: usize) -> &'static str {
    if samples >= 1000 {
        "p99"
    } else if samples >= 100 {
        "p90"
    } else {
        "p50"
    }
}

/// The reference kernel's time on an idle host of the speed the set-up
/// figures are quoted at (see `setup_s`).
pub const REFERENCE_NOMINAL_S: f64 = 0.15;

/// Set-up seconds quoted at the nominal host speed: the median over set-ups
/// of each one's wall time scaled by `REFERENCE_NOMINAL_S` over the
/// reference time measured just before it.
pub fn setup_s(walls: &[f64], refs: &[f64]) -> f64 {
    let scaled: Vec<f64> = walls
        .iter()
        .zip(refs)
        .map(|(w, r)| w * REFERENCE_NOMINAL_S / r)
        .collect();
    median(&scaled)
}

/// Wall seconds of a fixed piece of work that shares no code with the
/// program under test, run on one thread per core: a dictionary build (hash
/// inserts over 1M keys) and 2M random reads from a 32 MB table per thread,
/// the two access patterns that dominate CSV encoding and pair sampling.
/// This host's speed drifts with its other tenants' load, on either core;
/// timed beside each measured step, this measures the drift.
pub fn reference_kernel_s() -> f64 {
    let t = std::time::Instant::now();
    std::thread::scope(|scope| {
        for stream in 0..nproc() as u64 {
            scope.spawn(move || {
                let mut rng = Rng::new(0x7e7e, stream);
                let mut dict: std::collections::HashMap<u32, u32> =
                    std::collections::HashMap::new();
                for _ in 0..1_000_000 {
                    let key = (rng.next_u64() % 400_000) as u32;
                    let next = dict.len() as u32;
                    dict.entry(key).or_insert(next);
                }
                let table: Vec<u64> = (0..4_000_000u64)
                    .map(|i| i.wrapping_mul(0x9e37_79b9))
                    .collect();
                let mut acc = dict.len() as u64;
                for _ in 0..2_000_000 {
                    acc =
                        acc.rotate_left(7) ^ table[(rng.next_u64() % table.len() as u64) as usize];
                }
                std::hint::black_box(acc);
            });
        }
    });
    t.elapsed().as_secs_f64()
}

/// [`reference_kernel_s`] in a child process, so its memory stays out of
/// this process's peak RSS.
pub fn reference_s() -> Result<f64, String> {
    let out = child(&["reference"])?;
    out.trim()
        .parse()
        .map_err(|_| format!("reference run printed '{out}'"))
}

/// Runs this executable with `args` and waits for it; returns its stdout.
pub fn child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "child '{}' failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    String::from_utf8(output.stdout).map_err(|e| e.to_string())
}
