//! `cqlbench` — one benchmark for the CQL serving runtime, its commit
//! path and the batch fixpoint engine, end to end and per layer.
//!
//! ```text
//! cargo run --release --manifest-path cqlbench/Cargo.toml -- \
//!     --workload <name> --seconds <s> [--seed <u64>] [--trace <0|1>] [--runs <k>]
//! ```
//!
//! One run executes one workload in this process, checks every answer
//! against a closed form, prints each metric with its unit and sample
//! count, and ends with one JSON line. `--trace 1` swaps the end-to-end
//! metrics for the per-layer ones, writes a chrome trace beside the
//! executable and checks it. `--runs k` runs k child processes on seeds
//! `seed..seed+k` and prints each metric's median, quartiles and spread.
//! See README.md for the workloads, metrics and the public API used.

mod fixpoint;
mod inputs;
mod report;
mod serve;
mod spans;
mod stats;

use inputs::{Read, Sizes};
use report::Outcome;
use serve::Load;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: cqlbench --workload <point_read|range_read|mixed_rw|fixpoint_batch> \
                     --seconds <s> [--seed <u64>] [--trace <0|1>] [--runs <k>]";

const WORKLOADS: [&str; 4] = ["point_read", "range_read", "mixed_rw", "fixpoint_batch"];

/// What one run measures.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Unmeasured warm-up before the window.
    pub warmup: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

impl Config {
    fn new(seed: u64, seconds: f64, trace: bool, sizes: Sizes) -> Config {
        Config { seed, seconds, warmup: (seconds / 4.0).min(1.0), trace, sizes }
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: Option<u64>,
}

impl Args {
    /// The window length has no default: `BENCHMARK.json`'s `run_seconds`
    /// is passed as `--seconds`, so it is the one place the length is set.
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args { workload: "", seed: 1, seconds: 0.0, trace: false, runs: None };
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => {
                    out.workload = WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?;
                }
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--runs" => out.runs = Some(value.parse().map_err(|_| bad())?).filter(|&k| k > 0),
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if out.workload.is_empty() {
            return Err("--workload is required".into());
        }
        if out.seconds == 0.0 {
            return Err("--seconds is required".into());
        }
        Ok(out)
    }
}

/// Run `workload` and add the metrics measured from outside any layer.
fn run(workload: &str, cfg: &Config) -> Result<Outcome, String> {
    let mut out = match workload {
        "point_read" => {
            serve::run(&Load { readers: 2, workers: 2, draw: Read::point, writer: false }, cfg)
        }
        "range_read" => {
            serve::run(&Load { readers: 2, workers: 2, draw: Read::range, writer: false }, cfg)
        }
        "mixed_rw" => {
            serve::run(&Load { readers: 1, workers: 1, draw: Read::point, writer: true }, cfg)
        }
        "fixpoint_batch" => fixpoint::run(cfg),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if cfg.trace {
        out.span_layers();
        for (traced, e2e) in [
            ("traced.throughput_per_s", "throughput_per_s"),
            ("traced.latency_p50_ms", "latency_p50_ms"),
            ("traced.latency_tail_ms", "latency_tail_ms"),
        ] {
            if let Some(r) = out.metrics.get(e2e).copied() {
                out.put(traced, r.value, r.samples);
            }
        }
    } else {
        out.set("peak_rss_mb", peak_rss_mb()?, 1);
    }
    Ok(out)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        std::fs::read_to_string("/proc/self/status").map_err(|e| format!("peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "peak RSS: no VmHWM line".into())
}

/// Write the traced run's spans beside the executable, read the file
/// back and check it.
fn write_trace(workload: &str, out: &Outcome) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let path = exe.with_file_name(format!("cqlbench-trace-{workload}.json"));
    std::fs::write(&path, spans::render(&out.spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let events = spans::self_check(&text).map_err(|e| format!("trace self-check: {e}"))?;
    Ok(format!("{}: {events} events re-parsed; spans nest; commit identities hold", path.display()))
}

/// Print the run and return its exit code: 0 only when every answer was
/// right, every declared end-to-end metric has a value, and (traced) the
/// trace checks out.
fn report(workload: &str, cfg: &Config, out: &Outcome) -> u8 {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "cqlbench {workload}: seed {} · {} s measured · trace {} · {cores} cores available",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let mut code = 0;
    for (name, unit, r) in out.declared(cfg.trace) {
        match r.value {
            Some(v) if r.samples > 0 => {
                println!("  {name:<30} {v:>14.4} {unit:<6} (n={})", r.samples)
            }
            Some(_) => println!("  {name:<30} {:>14} {unit:<6} (not exercised)", "n/a"),
            None => {
                println!(
                    "  {name:<30} {:>14} {unit:<6} (refused: n={} leaves <10 beyond)",
                    "-", r.samples
                );
                if !cfg.trace {
                    code = 1;
                }
            }
        }
    }
    println!("  attempted {} · failed {}", out.attempted, out.failed);
    if cfg.trace {
        match write_trace(workload, out) {
            Ok(note) => println!("  trace {note}"),
            Err(e) => {
                println!("  trace FAILED: {e}");
                code = 1;
            }
        }
    }
    for what in out.wrong.iter().take(5) {
        println!("  WRONG: {what}");
    }
    if !out.wrong.is_empty() {
        code = 1;
    }
    if code == 0 || !out.wrong.is_empty() {
        println!("{}", out.json(cfg.trace));
    }
    code
}

/// `--runs k`: run k child processes on consecutive seeds and print each
/// metric's median, quartiles and spread (interquartile range over the
/// median).
fn repeat(args: &Args, k: u64) -> u8 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cqlbench: {e}");
            return 1;
        }
    };
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut code = 0;
    for i in 0..k {
        let seed = args.seed.wrapping_add(i);
        let child = Command::new(&exe)
            .args(["--workload", args.workload, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .output();
        let parsed = child.map_err(|e| e.to_string()).and_then(|o| {
            let stdout = String::from_utf8_lossy(&o.stdout).into_owned();
            let last = stdout.lines().last().unwrap_or_default().to_string();
            if o.status.success() {
                cql_trace::json::parse(&last)
            } else {
                Err(format!("exit {}: {}", o.status, stdout.trim_end()))
            }
        });
        match parsed {
            Ok(result) => {
                let metrics = result.get("metrics").and_then(|m| match m {
                    cql_trace::Json::Obj(fields) => Some(fields.clone()),
                    _ => None,
                });
                for (name, m) in metrics.unwrap_or_default() {
                    let unit =
                        m.get("unit").and_then(cql_trace::Json::as_str).unwrap_or("").to_string();
                    let v = m.get("value").and_then(cql_trace::Json::as_num).unwrap_or(f64::NAN);
                    values.entry(name).or_insert_with(|| (unit, Vec::new())).1.push(v);
                }
                println!("run {i} (seed {seed}): ok");
            }
            Err(e) => {
                println!("run {i} (seed {seed}): FAILED {e}");
                code = 1;
            }
        }
    }
    println!("{:<30} {:>12} {:>12} {:>12} {:>8}  unit", "metric", "median", "q1", "q3", "spread");
    for (name, (unit, v)) in &values {
        let median = stats::median(v);
        let (q1, q3) = stats::quartiles(v);
        let spread = if median == 0.0 { 0.0 } else { (q3 - q1) / median };
        println!(
            "{name:<30} {median:>12.4} {q1:>12.4} {q3:>12.4} {:>7.2}%  {unit}",
            spread * 100.0
        );
    }
    // A count that is a property of the program, not of timing, must
    // repeat exactly across seeds.
    if let Some((_, v)) =
        values.get("query.examined_per_read").filter(|_| args.workload == "point_read")
    {
        let exact = v.windows(2).all(|w| w[0] == w[1]);
        println!("query.examined_per_read identical across seeds: {exact}");
        if !exact {
            code = 1;
        }
    }
    code
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cqlbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.runs {
        return ExitCode::from(repeat(&args, k));
    }
    let cfg = Config::new(args.seed, args.seconds, args.trace, Sizes::FULL);
    match run(args.workload, &cfg) {
        Ok(out) => ExitCode::from(report(args.workload, &cfg, &out)),
        Err(e) => {
            eprintln!("cqlbench {}: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, trace: bool) -> Config {
        Config::new(seed, 0.3, trace, Sizes::TINY)
    }

    #[test]
    fn every_workload_reports_every_declared_metric_without_failures() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let out = run(workload, &tiny(3, trace)).unwrap();
                assert!(out.wrong.is_empty(), "{workload}: {:?}", out.wrong);
                assert!(out.attempted > 0 && out.failed == 0, "{workload}: {} failed", out.failed);
                let table: &[(&str, &str)] = if trace { &report::LAYERS } else { &report::E2E };
                let declared = out.declared(trace);
                assert_eq!(declared.len(), table.len());
                if !trace {
                    for (name, _, r) in &declared {
                        assert!(r.value.is_some_and(|v| v > 0.0), "{workload}: {name} = {r:?}");
                    }
                }
                let json = cql_trace::json::parse(&out.json(trace)).unwrap();
                assert_eq!(json.get("correct").and_then(cql_trace::Json::as_bool), Some(true));
                for (name, _) in table {
                    assert!(
                        json.get("metrics").and_then(|m| m.get(name)).is_some(),
                        "{workload}: {name}"
                    );
                }
            }
        }
    }

    #[test]
    fn traced_runs_measure_their_layers() {
        let point = run("point_read", &tiny(5, true)).unwrap();
        let n = Sizes::TINY.chain as f64;
        let value = |out: &Outcome, name| out.metrics.get(name).and_then(|r| r.value);
        assert_eq!(value(&point, "query.examined_per_read"), Some(n * (n + 1.0) / 2.0));
        assert_eq!(value(&point, "query.results_per_read"), Some(1.0));
        assert!(value(&point, "query.us.p50").is_some_and(|v| v > 0.0));
        assert!(spans::self_check(&spans::render(&point.spans)).is_ok());

        let mixed = run("mixed_rw", &tiny(5, true)).unwrap();
        assert!(value(&mixed, "commit.maintain_ms.p50").is_some_and(|v| v > 0.0));
        assert!(value(&mixed, "commit.delta_rounds").is_some_and(|v| v > 0.0));
        assert!(spans::self_check(&spans::render(&mixed.spans)).is_ok());

        let batch = run("fixpoint_batch", &tiny(5, true)).unwrap();
        assert!(value(&batch, "fixpoint.rounds").is_some_and(|v| v > 0.0));
        assert!(value(&batch, "join.probes").is_some_and(|v| v > 0.0));
    }

    #[test]
    fn an_injected_wrong_answer_is_counted_and_fails_the_run() {
        // A request stream whose closed form is wrong for the served
        // chain: the pair (0, n+2) is not in the closure.
        let load = Load {
            readers: 1,
            workers: 1,
            draw: |_, n| Read::Point { a: 0, b: n + 2 },
            writer: false,
        };
        let cfg = tiny(1, false);
        let out = serve::run(&load, &cfg).unwrap();
        assert!(out.failed > 0 && out.failed <= out.attempted);
        assert!(!out.wrong.is_empty());
        assert_eq!(report("point_read", &cfg, &out), 1);
        let json = cql_trace::json::parse(&out.json(false)).unwrap();
        assert_eq!(json.get("correct").and_then(cql_trace::Json::as_bool), Some(false));
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let args = parse("--workload mixed_rw --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            ("mixed_rw", 9, 12.0, true)
        );
        assert!(parse("--workload nope --seconds 1").is_err());
        assert!(parse("--seed 3 --seconds 1").is_err(), "workload is required");
        assert!(parse("--workload point_read").is_err(), "window length is required");
        assert!(parse("--workload point_read --seconds 1 --trace 2").is_err());
        assert!(parse("--workload point_read --seconds 0").is_err());
        assert!(parse("--workload point_read --seconds 1 --bogus 1").is_err());
    }
}
