//! The repository benchmark. One workload per run:
//!
//! ```text
//! cargo run --quiet --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload market --seed 1 --seconds 15 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ledger. The last line of standard output is the result object; the exit
//! code is nonzero when an output check fails or a metric cannot be
//! measured. NOTES.md explains the workloads and the layer table.

mod gateway;
mod layers;
mod report;
mod sim;
mod stats;

use report::{Meta, Report};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn run(a: &Args, threads: usize) -> Result<Report, String> {
    use sim::Kind;
    match a.workload.as_str() {
        "market" => sim::run(Kind::Market, a.seed, a.seconds, a.trace, threads),
        "agentic" => sim::run(Kind::Agentic, a.seed, a.seconds, a.trace, threads),
        "sharded_chaos" => sim::run(Kind::ShardedChaos, a.seed, a.seconds, a.trace, threads),
        "gateway" => gateway::run(a.seed, a.seconds, a.trace, threads),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = match run(&args, threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let expected: Vec<(&str, &str)> = if args.trace {
        layers::LAYERS.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        report::END_TO_END.to_vec()
    };
    if report.names() != expected {
        eprintln!(
            "benchmark: {} reported {:?}, expected {expected:?}",
            args.workload,
            report.names()
        );
        std::process::exit(1);
    }
    if let Some(m) = report
        .metrics
        .iter()
        .find(|m| !args.trace && m.value <= 0.0)
    {
        eprintln!("benchmark: end-to-end metric {} read {}", m.name, m.value);
        std::process::exit(1);
    }
    let meta = Meta {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        commit: report::commit(),
        host_parallelism: threads,
    };
    report.print(&meta);
    if !report.correct() {
        eprintln!("benchmark: an output check failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use serde_json::Value;

    fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
        match v {
            Value::Object(o) => o.get(key).unwrap_or_else(|| panic!("no {key}")),
            _ => panic!("not an object"),
        }
    }

    fn text(v: &Value) -> &str {
        match v {
            Value::String(s) => s,
            _ => panic!("not a string"),
        }
    }

    fn entries(key: &str) -> Vec<(String, String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
                .expect("BENCHMARK.json parses");
        let Value::Array(list) = field(&doc, key) else {
            panic!("{key} is not a list")
        };
        list.iter()
            .map(|m| {
                let name = text(field(m, "name")).to_string();
                (
                    name,
                    text(field(m, "unit")).to_string(),
                    text(field(m, "better")).to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_the_reported_metrics() {
        let e2e: Vec<(String, String)> = entries("end_to_end")
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect();
        let ours: Vec<(String, String)> = crate::report::END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(e2e, ours);
        let layers: Vec<(String, String, String)> = crate::layers::LAYERS
            .iter()
            .map(|l| (l.name.to_string(), l.unit.to_string(), l.better.to_string()))
            .collect();
        assert_eq!(entries("per_layer"), layers);
    }
}
