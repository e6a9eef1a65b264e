//! End-to-end and per-layer benchmark of the halpern-moses workspace.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --smoke
//! ```
//!
//! One run executes one workload in this process, closed loop, for the
//! given number of seconds, checks every answer against an oracle after
//! the timed window, and prints as its last stdout line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` runs the same workload with spans
//! around each layer's public calls and reports the per-layer metrics.
//! `--smoke` runs every workload for about a second, traced and not, and
//! fails unless every answer is right. See `e2ebench/README.md`.

mod cold;
mod formulas;
mod serve;
mod stats;
mod trace;
mod warm;

use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 4] = [
    "agreement-cold",
    "query-warm",
    "serve-fresh",
    "serve-keepalive",
];

/// Every per-layer metric and its unit. A traced run prints all of
/// them; a metric its workload does not exercise reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("host.ref_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("core.canonicalize_ms", "ms"),
    ("core.system_ms", "ms"),
    ("runs.interpret_ms", "ms"),
    ("runs.views_ms", "ms"),
    ("runs.view_ids", "count"),
    ("engine.ask_first_ms", "ms"),
    ("engine.drop_ms", "ms"),
    ("core.patterns", "count"),
    ("runs.worlds", "count"),
    ("logic.analyze_us", "us"),
    ("logic.simplify_us", "us"),
    ("logic.compile_us", "us"),
    ("logic.bind_us", "us"),
    ("logic.eval_us.muddy", "us"),
    ("logic.eval_us.random", "us"),
    ("logic.eval_us.deadlock", "us"),
    ("logic.eval_us.r2d2", "us"),
    ("logic.eval_us.agreement", "us"),
    ("engine.ask_hit_us", "us"),
    ("engine.ask_fresh_us", "us"),
    ("logic.ops", "count"),
    ("engine.compiled_queries", "count"),
    ("engine.build_ms.muddy", "ms"),
    ("engine.build_ms.random", "ms"),
    ("engine.build_ms.deadlock", "ms"),
    ("engine.build_ms.r2d2", "ms"),
    ("engine.build_ms.agreement", "ms"),
    ("kripke.refine_ms", "ms"),
    ("serve.connect_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.first_byte_us", "us"),
    ("serve.body_us", "us"),
    ("serve.session_us", "us"),
    ("serve.ask_us", "us"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.evictions", "count"),
    ("serve.shed", "count"),
];

/// How a run is shaped: input seed, timed-window length, tracing.
#[derive(Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload measured. Correctness problems beyond per-op
/// failures (accounting mismatches, oracle disagreements on counts)
/// go in `problems`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Median of the repeated set-ups, seconds.
    pub setup_s: f64,
    /// Per-op latency, ms, every attempted op (`f32`: four bytes an op,
    /// so the samples barely move the peak RSS).
    pub latencies_ms: Vec<f32>,
    /// Wall-clock seconds of the timed window.
    pub timed_s: f64,
    pub peak_rss_mb: f64,
    /// Per-layer values (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    pub problems: Vec<String>,
}

fn run_workload(name: &str, cfg: Config) -> Option<Outcome> {
    Some(match name {
        "agreement-cold" => cold::run(cfg),
        "query-warm" => warm::run(cfg),
        "serve-fresh" => serve::run(cfg, serve::Mode::Fresh),
        "serve-keepalive" => serve::run(cfg, serve::Mode::KeepAlive),
        _ => return None,
    })
}

/// A number as JSON; non-finite values (a layer with no samples) read 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the human-readable summary on stderr and the result line on
/// stdout.
fn report(workload: &str, cfg: Config, out: &mut Outcome, host_ref: f64) {
    let ok_frac = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
    let mut latencies: Vec<f64> = out.latencies_ms.iter().map(|&ms| f64::from(ms)).collect();
    let completed = latencies.len() as f64;
    let p50 = stats::quantile(&mut latencies, 0.5);
    let p90 = stats::quantile(&mut latencies, 0.9);
    let e2e: [(&str, f64, &str); 6] = [
        ("setup_s", out.setup_s, "s"),
        ("ok_frac", ok_frac, "frac"),
        ("verdict_ms.p50", p50, "ms"),
        ("verdict_ms.p90", p90, "ms"),
        ("verdicts_per_s", completed / out.timed_s, "1/s"),
        ("peak_rss_mb", out.peak_rss_mb, "MB"),
    ];
    eprintln!(
        "{workload} seed={} seconds={} trace={}: {} ops attempted, {} failed, \
         {:.3} s timed, host.ref_ms={host_ref:.3}",
        cfg.seed, cfg.seconds, cfg.trace as u8, out.attempted, out.failed, out.timed_s
    );
    for p in &out.problems {
        eprintln!("  problem: {p}");
    }
    let mut metrics: Vec<String> = Vec::new();
    if cfg.trace {
        out.layers.push(("host.ref_ms", host_ref));
        for &(name, unit) in LAYERS {
            let v = out
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            eprintln!("  {name:<28} {v:>14.4} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            ));
        }
    } else {
        for (name, v, unit) in e2e {
            eprintln!("  {name:<28} {v:>14.4} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            ));
        }
        eprintln!("  (latency samples: {})", out.latencies_ms.len());
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.problems.is_empty() && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

/// Runs every workload for about a second, untraced and traced; fails
/// unless every op of every run answered correctly.
fn smoke() -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        for trace in [false, true] {
            let cfg = Config {
                seed: 1,
                seconds: 1.0,
                trace,
            };
            let out = run_workload(w, cfg).expect("known workload");
            let pass = out.attempted > 0 && out.failed == 0 && out.problems.is_empty();
            eprintln!(
                "smoke {w:<16} trace={}: {} ops, {} failed, {}",
                trace as u8,
                out.attempted,
                out.failed,
                if pass { "ok" } else { "FAIL" }
            );
            for p in &out.problems {
                eprintln!("  problem: {p}");
            }
            ok &= pass;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "error: {msg}\nusage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         e2ebench --smoke",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--host-ref") => {
            println!("{}", stats::host_ref_kernel_ms());
            return ExitCode::SUCCESS;
        }
        Some("--smoke") => return smoke(),
        _ => {}
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("`{flag}` needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are all required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload `{workload}`"));
    }
    let cfg = Config {
        seed,
        seconds,
        trace,
    };
    let before = stats::host_ref_ms();
    let mut out = run_workload(&workload, cfg).expect("workload name checked above");
    let after = stats::host_ref_ms();
    report(&workload, cfg, &mut out, (before + after) / 2.0);
    ExitCode::SUCCESS
}
