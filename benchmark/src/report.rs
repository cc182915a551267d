//! `BENCHMARK.json` as the single list of metric names, units, directions
//! and bounds; the result line; result files and their comparison.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::__private::Value;
use serde::{Deserialize, Serialize};

use crate::harness::median;

/// Any JSON document, through the repository's serde stand-in.
pub struct Json(pub Value);

impl Deserialize for Json {
    fn deserialize_value(v: &Value) -> Result<Self, serde::__private::Error> {
        Ok(Json(v.clone()))
    }
}

impl Serialize for Json {
    fn serialize_value(&self) -> Value {
        self.0.clone()
    }
}

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the base's median a metric may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

pub struct Manifest {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

/// The directory of this package: where `cargo run` says it is, else
/// where it was when compiled.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn seq(v: &Value) -> Result<&[Value], String> {
    match v {
        Value::Seq(items) => Ok(items),
        _ => Err("BENCHMARK.json: expected a list".into()),
    }
}

fn metric_defs(v: &Value) -> Result<Vec<MetricDef>, String> {
    seq(v)?
        .iter()
        .map(|m| {
            let text = |k: &str| -> Result<String, String> {
                Ok(field(m, k)?
                    .as_str()
                    .map_err(|e| e.to_string())?
                    .to_string())
            };
            Ok(MetricDef {
                name: text("name")?,
                unit: text("unit")?,
                lower_is_better: text("better")? == "lower",
                bound: m.get("bound").and_then(|b| b.as_f64().ok()),
            })
        })
        .collect()
}

impl Manifest {
    /// Reads `BENCHMARK.json` from the current directory (the driver runs
    /// from the checkout root) or from beside this package.
    pub fn load() -> Result<Manifest, String> {
        let here = Path::new("BENCHMARK.json");
        let path = if here.exists() {
            here.to_path_buf()
        } else {
            package_dir().join("../BENCHMARK.json")
        };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let Json(v) = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Manifest {
            run_seconds: field(&v, "run_seconds")?
                .as_u64()
                .map_err(|e| e.to_string())?,
            workloads: seq(field(&v, "workloads")?)?
                .iter()
                .map(|w| {
                    Ok(field(w, "name")?
                        .as_str()
                        .map_err(|e| e.to_string())?
                        .to_string())
                })
                .collect::<Result<_, String>>()?,
            end_to_end: metric_defs(field(&v, "end_to_end")?)?,
            per_layer: metric_defs(field(&v, "per_layer")?)?,
        })
    }

    pub fn unit_of(&self, name: &str) -> &str {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map_or("", |m| m.unit.as_str())
    }
}

/// Whether a metric is read off the host (time, memory) and so differs
/// between two runs of identical work. Everything else is model time or a
/// count and must repeat exactly.
pub fn host_dependent(name: &str) -> bool {
    name.contains("wall")
        || name.contains("rss")
        || name == "setup_s"
        || name.starts_with("workloads.")
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Picks `wanted` out of what a run computed, in manifest order, for the
/// driver's result line. The driver wants every listed metric on every
/// line, so a per-layer metric that is undefined for the workload reads 0
/// there and only there (`fill_undefined`); `run --all` and result files
/// leave it out. A missing end-to-end metric, or a value that is not a
/// finite number, is an error: the output would not match `BENCHMARK.json`.
pub fn select(
    wanted: &[MetricDef],
    computed: &BTreeMap<String, f64>,
    fill_undefined: bool,
) -> Result<Vec<(String, f64, String)>, String> {
    wanted
        .iter()
        .map(|def| match computed.get(&def.name) {
            Some(v) if v.is_finite() => Ok((def.name.clone(), *v, def.unit.clone())),
            Some(v) => Err(format!("metric {} is not finite: {v}", def.name)),
            None if fill_undefined => Ok((def.name.clone(), 0.0, def.unit.clone())),
            None => Err(format!(
                "metric {} is listed in BENCHMARK.json but was not measured",
                def.name
            )),
        })
        .collect()
}

/// One parsed result line.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

pub fn parse_result_line(line: &str) -> Result<RunResult, String> {
    let Json(v) = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let mut metrics = BTreeMap::new();
    for (name, m) in field(&v, "metrics")?.as_map().map_err(|e| e.to_string())? {
        metrics.insert(
            name.clone(),
            field(m, "value")?.as_f64().map_err(|e| e.to_string())?,
        );
    }
    Ok(RunResult {
        correct: field(&v, "correct")?.as_bool().map_err(|e| e.to_string())?,
        attempted: field(&v, "attempted")?
            .as_u64()
            .map_err(|e| e.to_string())?,
        failed: field(&v, "failed")?.as_u64().map_err(|e| e.to_string())?,
        metrics,
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), so spreads here match the driver's.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    let med = median(&mut values.to_vec());
    if med != 0.0 {
        (q3 - q1) / med.abs()
    } else {
        0.0
    }
}

/// A set of runs: workload → metric → one value per run.
pub type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn write_set(
    path: &Path,
    label: &str,
    first_seed: u64,
    set: &Set,
    failed: u64,
    attempted: u64,
) -> std::io::Result<()> {
    let workloads = set
        .iter()
        .map(|(w, metrics)| {
            let ms = metrics
                .iter()
                .map(|(name, vals)| {
                    (
                        name.clone(),
                        Value::Map(vec![
                            ("median".into(), Value::F64(median(&mut vals.clone()))),
                            ("spread".into(), Value::F64(spread(vals))),
                            (
                                "values".into(),
                                Value::Seq(vals.iter().map(|&v| Value::F64(v)).collect()),
                            ),
                        ]),
                    )
                })
                .collect();
            (w.clone(), Value::Map(ms))
        })
        .collect();
    let doc = Value::Map(vec![
        ("label".into(), Value::Str(label.into())),
        ("first_seed".into(), Value::U64(first_seed)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("workloads".into(), Value::Map(workloads)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(&Json(doc)).map_err(std::io::Error::from)?;
    std::fs::write(path, text + "\n")
}

/// A result file: the first seed of its runs, its failed ops, the set.
pub fn read_set(path: &Path) -> Result<(u64, u64, Set), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Json(v) = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let number = |key: &str| field(&v, key)?.as_u64().map_err(|e| e.to_string());
    let (first_seed, failed) = (number("first_seed")?, number("failed")?);
    let mut set = Set::new();
    for (w, metrics) in field(&v, "workloads")?
        .as_map()
        .map_err(|e| e.to_string())?
    {
        let entry = set.entry(w.clone()).or_default();
        for (name, m) in metrics.as_map().map_err(|e| e.to_string())? {
            let vals = seq(field(m, "values")?)?
                .iter()
                .map(|x| x.as_f64().map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            entry.insert(name.clone(), vals);
        }
    }
    Ok((first_seed, failed, set))
}

/// Model-time and count metrics of the issue's twelve. For a seed they
/// repeat exactly, so two sets over the same seeds are compared at the
/// issue's tight bound, whatever the spread between seeds that the driver's
/// bound in `BENCHMARK.json` has to cover. (name, bound, bound is absolute.)
pub const EXACT: [(&str, f64, bool); 7] = [
    ("virt_ns_per_op", 0.005, false),
    ("virt_p99_ns", 0.005, false),
    ("virt_overhead_pct", 0.5, true),
    ("write_amp", 0.01, false),
    ("space_amp", 0.01, false),
    ("recover_virt_ms", 0.01, false),
    ("fail_frac", 0.0, true),
];

/// The host-time tail is too unsteady on this sandbox for the driver's gate
/// (one set of ten `varmail` runs spread 25.0 %, see the README), so
/// `BENCHMARK.json` lists it per layer. `compare` gates it all the same,
/// with the bound the other host times carry.
const WALL_P99: (&str, f64) = ("refwall_p99_ns", 0.25);

/// `compare a.json b.json`: one row per (workload, end-to-end metric), per
/// (workload, [`WALL_P99`]) and per (workload, [`EXACT`] metric defined for
/// it). Returns whether any
/// row regressed; a row present in one set only counts as regressed.
pub fn compare(manifest: &Manifest, base: &Set, new: &Set, same_seeds: bool) -> bool {
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "base", "new", "new/base", "bound", "spread"
    );
    let mut gated = manifest.end_to_end.clone();
    gated.push(MetricDef {
        name: WALL_P99.0.into(),
        unit: "ns".into(),
        lower_is_better: true,
        bound: Some(WALL_P99.1),
    });
    let listed = |name: &str| gated.iter().find(|d| d.name == name);
    let mut rows: Vec<&str> = gated.iter().map(|d| d.name.as_str()).collect();
    rows.extend(
        EXACT
            .iter()
            .map(|(name, _, _)| *name)
            .filter(|name| listed(name).is_none()),
    );
    let mut regressed = false;
    for w in &manifest.workloads {
        for &name in &rows {
            let values = |set: &'_ Set| set.get(w).and_then(|m| m.get(name)).cloned();
            let (mut a, mut b) = match (values(base), values(new)) {
                (Some(a), Some(b)) => (a, b),
                // Undefined for this workload (no twin, no writes, ...).
                (None, None) if listed(name).is_none() => continue,
                _ => {
                    regressed = true;
                    println!("{w:<12} {name:<18} missing in one set  regressed");
                    continue;
                }
            };
            let (ma, mb) = (median(&mut a), median(&mut b));
            let higher_is_better = listed(name).is_some_and(|d| !d.lower_is_better);
            let worse_by = if higher_is_better { ma - mb } else { mb - ma };
            // (bound, bound is absolute, spread that could hide a change)
            let exact = EXACT.iter().find(|(n, _, _)| *n == name);
            let (bound, absolute, wide) = match (exact, listed(name)) {
                (Some(&(_, bound, absolute)), _) if same_seeds => (bound, absolute, 0.0),
                (_, Some(def)) => (def.bound.unwrap_or(0.0), false, spread(&a).max(spread(&b))),
                (_, None) => {
                    println!("{w:<12} {name:<18} {ma:>14.4} {mb:>14.4}  the sets ran other seeds  unresolved");
                    continue;
                }
            };
            let verdict = if worse_by > if absolute { bound } else { bound * ma.abs() } {
                regressed = true;
                "regressed"
            } else if wide > bound {
                "unresolved"
            } else {
                "ok"
            };
            let ratio = if ma == mb { 1.0 } else { mb / ma };
            println!(
                "{w:<12} {name:<18} {ma:>14.4} {mb:>14.4} {ratio:>9.4} {bound:>7.3} {wide:>7.3}  {verdict}"
            );
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q2 - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }

    #[test]
    fn compare_gates_exact_metrics_and_missing_rows() {
        let def = |name: &str, bound| MetricDef {
            name: name.into(),
            unit: String::new(),
            lower_is_better: true,
            bound: Some(bound),
        };
        let manifest = Manifest {
            run_seconds: 1,
            workloads: vec!["w".into()],
            end_to_end: vec![def("virt_ns_per_op", 0.12), def("refwall_p50_ns", 0.25)],
            per_layer: Vec::new(),
        };
        let set = |rows: &[(&str, &[f64])]| -> Set {
            let metrics = rows
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_vec()))
                .collect();
            [("w".to_string(), metrics)].into_iter().collect()
        };
        let base = set(&[
            ("virt_ns_per_op", &[100.0, 102.0]),
            ("refwall_p50_ns", &[10.0, 10.5]),
            ("refwall_p99_ns", &[50.0, 52.0]),
            ("write_amp", &[2.0]),
        ]);
        assert!(!compare(&manifest, &base, &base, true));
        // 1 % more model time: over the issue's 0.5 % on the same seeds,
        // inside the driver's 12 % on other seeds.
        let slower = set(&[
            ("virt_ns_per_op", &[101.0, 103.0]),
            ("refwall_p50_ns", &[10.0, 10.5]),
            ("refwall_p99_ns", &[50.0, 52.0]),
            ("write_amp", &[2.0]),
        ]);
        assert!(compare(&manifest, &base, &slower, true));
        assert!(!compare(&manifest, &base, &slower, false));
        // A row that vanished from the new set is a regression, listed or not.
        let no_amp = set(&[
            ("virt_ns_per_op", &[100.0, 102.0]),
            ("refwall_p50_ns", &[10.0, 10.5]),
            ("refwall_p99_ns", &[50.0, 52.0]),
        ]);
        assert!(compare(&manifest, &base, &no_amp, true));
        assert!(!compare(&manifest, &no_amp, &no_amp, true));
        let no_p50 = set(&[
            ("virt_ns_per_op", &[100.0, 102.0]),
            ("refwall_p99_ns", &[50.0, 52.0]),
            ("write_amp", &[2.0]),
        ]);
        assert!(compare(&manifest, &base, &no_p50, true));
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_line(true, 10, 0, &[("a_ns".into(), 1.25, "ns".into())]);
        let r = parse_result_line(&line).unwrap();
        assert!(r.correct && r.attempted == 10 && r.failed == 0);
        assert_eq!(r.metrics["a_ns"], 1.25);
    }
}
