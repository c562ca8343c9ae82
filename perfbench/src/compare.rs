//! Compare mode: medians of two result files side by side.
//!
//! A results file is the standard output of one or more runs, appended;
//! each run contributes its provenance line and its result line. For every
//! workload and metric both files measured, this prints both medians, the
//! ratio new/old, and whether new is worse than old by more than the
//! metric's bound in `BENCHMARK.json` (per-layer metrics have no bound).

use crate::input::median;
use crate::json::Json;
use std::collections::BTreeMap;

/// `(workload, metric)` → values, plus the unit of each metric.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<(Samples, BTreeMap<String, String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut samples = Samples::new();
    let mut units = BTreeMap::new();
    let mut workload: Option<String> = None;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let json = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
        if let Some(p) = json.get("perfbench") {
            workload = p.get("workload").and_then(Json::as_str).map(str::to_owned);
            continue;
        }
        let (Some(w), Some(metrics)) = (&workload, json.get("metrics").and_then(Json::as_obj))
        else {
            continue;
        };
        if json.get("correct").and_then(Json::as_bool) != Some(true) {
            eprintln!("{path}: skipping a {w} run that failed its checks");
            continue;
        }
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                samples
                    .entry((w.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
            if let Some(u) = m.get("unit").and_then(Json::as_str) {
                units.insert(name.clone(), u.to_owned());
            }
        }
    }
    Ok((samples, units))
}

/// `metric` → (`better`, `bound`) from a BENCHMARK.json.
fn directions(path: &str) -> Result<BTreeMap<String, (String, Option<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in json.get(section).and_then(Json::as_arr).unwrap_or_default() {
            if let (Some(name), Some(better)) = (
                m.get("name").and_then(Json::as_str),
                m.get("better").and_then(Json::as_str),
            ) {
                out.insert(
                    name.to_owned(),
                    (better.to_owned(), m.get("bound").and_then(Json::as_f64)),
                );
            }
        }
    }
    Ok(out)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let (old_path, new_path, bench) = match args {
        [a, b] => (a, b, "BENCHMARK.json"),
        [a, b, c] => (a, b, c.as_str()),
        _ => {
            return Err(
                "usage: perfbench compare <old-results> <new-results> [BENCHMARK.json]".into(),
            )
        }
    };
    let (old, units) = load(old_path)?;
    let (new, _) = load(new_path)?;
    let dirs = directions(bench)?;
    let mut regressions = 0;
    let mut current = String::new();
    for ((workload, metric), old_v) in &old {
        let Some(new_v) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        if *workload != current {
            println!("\n{workload}");
            println!(
                "  {:<28} {:>6} {:>14} {:>14} {:>8} {:>8}  verdict",
                "metric", "unit", "old median", "new median", "new/old", "bound"
            );
            current = workload.clone();
        }
        let (o, n) = (median(old_v), median(new_v));
        let (better, bound) = dirs.get(metric).cloned().unwrap_or(("lower".into(), None));
        // How much worse new is than old, as a share of old.
        let worse = if better == "higher" {
            (o - n) / o.abs()
        } else {
            (n - o) / o.abs()
        };
        let verdict = match bound {
            Some(b) if worse > b => {
                regressions += 1;
                "REGRESSION"
            }
            Some(_) => "within bound",
            None if worse > 0.0 => "worse (no bound)",
            None => "-",
        };
        println!(
            "  {metric:<28} {:>6} {o:>14.6} {n:>14.6} {:>8.4} {:>8}  {verdict}  (n={}/{})",
            units.get(metric).map_or("", String::as_str),
            n / o,
            bound.map_or("-".to_owned(), |b| format!("{b}")),
            old_v.len(),
            new_v.len(),
        );
    }
    println!("\n{regressions} end-to-end metric(s) worse than their bound");
    Ok(())
}
