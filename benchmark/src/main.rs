//! muxbench: a two-clock, six-workload benchmark of Mux with a traced
//! per-layer run. See `README.md` beside this package.
//!
//! ```text
//! muxbench --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! muxbench run --all [--seed N] [--runs K] [--seconds S] [--traced]
//!              [--quick | --virt-only] [--out FILE]
//! muxbench compare a.json b.json
//! muxbench selftest
//! ```

mod counters;
mod harness;
mod oracle;
mod probe;
mod replay;
mod report;
mod run;
mod span;
mod stack;
mod workloads;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use report::{host_dependent, Manifest, RunResult, Set};
use run::{RunArgs, Until};

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == name) {
            Some(i) if i + 1 < self.0.len() => {
                self.0.remove(i);
                Ok(Some(self.0.remove(i)))
            }
            Some(_) => Err(format!("{name} needs a value")),
            None => Ok(None),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read `{v}`")),
            None => Ok(None),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
            None => Ok(()),
        }
    }
}

fn main() -> ExitCode {
    let mut args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("run") => {
            args.0.remove(0);
            run_all(args)
        }
        Some("compare") => compare(&args.0[1..]),
        Some("selftest") => selftest(),
        _ => one_run(args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("muxbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The driver's form: one workload, one result line as the last line of
/// standard output.
fn one_run(mut args: Args) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    let workload = args.value("--workload")?.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = args.parsed("--seed")?.unwrap_or(7);
    let trace = args.parsed::<u8>("--trace")?.unwrap_or(0) != 0;
    let seconds = args
        .parsed("--seconds")?
        .unwrap_or(manifest.run_seconds as f64);
    let until = match args.parsed::<usize>("--reps")? {
        Some(n) => Until::Reps(n.max(1)),
        None => Until::Seconds(seconds),
    };
    let shrink = args.parsed("--shrink")?.unwrap_or(1);
    let computed = args.flag("--computed");
    args.done()?;

    let out = run::run(
        &RunArgs {
            workload,
            seed,
            until,
            trace,
            shrink,
            flip_one: false,
        },
        &report::package_dir().join("out"),
    );
    let listed = if trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    };
    // `run --all` asks for what was computed and nothing else; the driver
    // gets every listed metric.
    let metrics = if computed {
        out.metrics
            .iter()
            .map(|(k, v)| (k.clone(), *v, manifest.unit_of(k).to_string()))
            .collect()
    } else {
        report::select(listed, &out.metrics, trace)?
    };
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &metrics)
    );
    Ok(true)
}

/// Runs this binary once more for one workload and parses its result line.
fn child(workload: &str, seed: u64, trace: bool, mode: &[String]) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(mode)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: the run exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    report::parse_result_line(text.lines().last().unwrap_or(""))
}

/// `run --all`: every workload, one process each, one after another.
fn run_all(mut args: Args) -> Result<bool, String> {
    let manifest = Manifest::load()?;
    if !args.flag("--all") {
        return Err("run: only `run --all` is supported; for one workload use --workload".into());
    }
    let seed: u64 = args.parsed("--seed")?.unwrap_or(7);
    let runs: u64 = args.parsed("--runs")?.unwrap_or(1).max(1);
    let seconds: f64 = args
        .parsed("--seconds")?
        .unwrap_or(manifest.run_seconds as f64);
    let traced = args.flag("--traced");
    let quick = args.flag("--quick");
    let virt_only = args.flag("--virt-only");
    let out_path = args.value("--out")?.map(PathBuf::from);
    args.done()?;

    // --quick checks the driver's form of the result line; the other modes
    // take what was computed, so that an undefined metric is left out.
    let mode: Vec<String> = if virt_only {
        ["--reps", "1", "--computed"].map(String::from).to_vec()
    } else if quick {
        ["--reps", "1", "--shrink", "20"].map(String::from).to_vec()
    } else {
        vec!["--seconds".into(), seconds.to_string(), "--computed".into()]
    };

    let mut set = Set::new();
    let (mut attempted, mut failed, mut all_correct) = (0, 0, true);
    for w in &manifest.workloads {
        for r in 0..runs {
            // --virt-only needs counters, which the traced run carries. With
            // several runs, only the first seed is also run traced.
            let passes: &[bool] = match (virt_only, (traced || quick) && r == 0) {
                (true, _) => &[true],
                (false, true) => &[false, true],
                (false, false) => &[false],
            };
            // What the untraced run of this seed printed. Its traced run
            // repeats some of it (model time, raw host times); a set takes
            // those from the untraced runs, one value per seed.
            let mut given = BTreeSet::new();
            for &trace in passes {
                let res = child(w, seed + r, trace, &mode)?;
                attempted += res.attempted;
                failed += res.failed;
                all_correct &= res.correct;
                let unit = |name: &str| manifest.unit_of(name).to_string();
                for (name, value) in &res.metrics {
                    let skip = if virt_only {
                        host_dependent(name)
                    } else {
                        trace && given.contains(name)
                    };
                    if skip {
                        continue;
                    }
                    if !trace {
                        given.insert(name.clone());
                    }
                    println!("{w:<12} {name:<40} {value:>20} {}", unit(name));
                    set.entry(w.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(*value);
                }
                if quick {
                    check_schema(&manifest, trace, &res)?;
                }
            }
        }
    }
    println!(
        "attempted {attempted}  failed {failed}  fail_frac {}  correct {all_correct}",
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(path) = out_path {
        let label = format!("seed {seed}, {runs} run(s) per workload, {seconds} s each");
        report::write_set(&path, &label, seed, &set, failed, attempted)
            .map_err(|e| e.to_string())?;
    }
    Ok(all_correct && failed == 0)
}

/// `--quick`: the result line must carry exactly the metrics
/// `BENCHMARK.json` lists for that kind of run.
fn check_schema(manifest: &Manifest, trace: bool, res: &RunResult) -> Result<(), String> {
    let listed: BTreeSet<&str> = if trace {
        &manifest.per_layer
    } else {
        &manifest.end_to_end
    }
    .iter()
    .map(|m| m.name.as_str())
    .collect();
    for name in res.metrics.keys() {
        if !listed.contains(name.as_str()) {
            return Err(format!(
                "schema: `{name}` is printed but not in BENCHMARK.json"
            ));
        }
    }
    for name in &listed {
        if !res.metrics.contains_key(*name) {
            return Err(format!(
                "schema: `{name}` is in BENCHMARK.json but not printed"
            ));
        }
    }
    Ok(())
}

fn compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare: give two result files".into());
    };
    let manifest = Manifest::load()?;
    let (seed_a, failed_a, base) = report::read_set(a.as_ref())?;
    let (seed_b, failed_b, new) = report::read_set(b.as_ref())?;
    let regressed = report::compare(&manifest, &base, &new, seed_a == seed_b);
    // Every run's failures, the traced runs' checks included.
    let more_failed = failed_b > failed_a;
    println!(
        "{:<12} {:<18} {failed_a:>14} {failed_b:>14}  {}",
        "all",
        "failed ops",
        if more_failed { "regressed" } else { "ok" }
    );
    Ok(!regressed && !more_failed)
}

/// Proves the oracle is not vacuous: with one expected byte flipped, each
/// workload must report exactly one failure, and none without the flip.
fn selftest() -> Result<bool, String> {
    let mut ok = true;
    for w in workloads::NAMES {
        for flip_one in [false, true] {
            let out = run::run(
                &RunArgs {
                    workload: w.to_string(),
                    seed: 7,
                    until: Until::Reps(1),
                    trace: false,
                    shrink: 20,
                    flip_one,
                },
                &report::package_dir().join("out"),
            );
            let want = u64::from(flip_one);
            let pass = out.failed == want && out.correct != flip_one;
            println!(
                "selftest {w:<12} flip={flip_one:<5} failed={} (want {want}) {}",
                out.failed,
                if pass { "ok" } else { "WRONG" }
            );
            ok &= pass;
        }
    }
    Ok(ok)
}
