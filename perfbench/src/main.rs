//! The serving-path benchmark: drives a `ReactorCluster` through its
//! public client API with a single open-loop generator thread and
//! prints end-to-end metrics (`--trace 0`) or per-layer metrics of a
//! traced rerun (`--trace 1`), after checking that every answer is
//! correct.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload writes_mem --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run measures several fresh clusters in turn (more for a longer
//! `--seconds`), each with two phases. The *paced* phase sends sessions
//! on a fixed schedule and times each from its due time; each
//! cluster's first sessions are warm-up and excluded. The *saturation*
//! phase offers fixed-size bursts, each all at once and so faster than
//! the cluster answers, and measures capacity and CPU cost. Latencies
//! pool every cluster's samples; set-up time is the median over every
//! spawn. Human-readable lines go first; the last line of standard
//! output is the JSON result. The exit code is nonzero when any
//! correctness gate fails.

mod alloc;
mod check;
mod drive;
mod measure;
mod metrics;
mod probe;
mod procfs;
mod report;
mod stats;
mod workload;

use measure::{measure, spawn_timed, Measured};
use metrics::END_TO_END;
use qbc_cluster::ObsConfig;
use report::Values;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| bad("seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What a run reports on its result line.
struct RunResult {
    values: Values,
    attempted: usize,
    failed: usize,
    violations: Vec<String>,
}

/// Runs the benchmark and prints the human-readable table.
fn run(args: &Args, work: &Path) -> Result<RunResult, String> {
    let w = args.workload;
    let plan = w.plan(args.seconds);
    let ops = w.ops(args.seed, &plan);
    let mut wal_dirs = (0..).map(|k| work.join(format!("wal-{k}")));
    let mut cfg_for = || w.cluster_config(&wal_dirs.next().expect("endless"));

    let runs: Vec<Measured> = ops
        .chunks(plan.ops_per_cluster())
        .map(|ops| measure(w, &plan, ops, &cfg_for(), false))
        .collect();
    // Spawn-only clusters, so `setup_s` is a median of several samples.
    let mut setup: Vec<f64> = runs.iter().map(|m| m.setup_s).collect();
    for _ in 0..workload::SETUP_EXTRA {
        let (cluster, secs, _) = spawn_timed(w, &cfg_for());
        setup.push(secs);
        cluster.shutdown();
    }
    let refs: Vec<&Measured> = runs.iter().collect();
    let e2e = report::end_to_end(&plan, &ops, &refs, &setup);

    let late = runs
        .iter()
        .map(|m| m.paced.lateness.max_ms())
        .fold(0.0, f64::max);
    println!(
        "# {} seed {}: {} clusters x ({} paced at {}/s, first {} warm-up; {} bursts of {}); \
         generator late by at most {late:.3} ms",
        w.name(),
        args.seed,
        plan.clusters,
        plan.paced_sessions,
        plan.paced_rate,
        plan.warmup_sessions,
        workload::BURSTS,
        plan.burst_sessions,
    );
    if let Some((at, site)) = plan.kill_at {
        let early: usize = runs.iter().map(Measured::aborts_before_kill).sum();
        println!(
            "# site {} killed before session {at} of the first burst, which runs before the \
             paced phase; aborts before the kill: {early}",
            site.0
        );
    }
    for m in END_TO_END {
        let gate = match m.bound {
            Some(b) => format!("{}, bound {b}", m.better),
            None => format!("{}, printed", m.better),
        };
        match e2e.get(m.name) {
            Some(x) => println!(
                "{:<16} {x:>14.4} {:<5} {gate:<19} {}",
                m.name, m.unit, m.what
            ),
            None => println!(
                "{:<16} {:>14} {:<5} {gate:<19} {}",
                m.name, "n/a", m.unit, m.what
            ),
        }
    }

    // Clusters beyond the end-to-end ones, all run on the first
    // cluster's share of the operations.
    let mut extra = Vec::new();
    let values = if args.trace {
        // An untraced and a traced cluster on the same operations: the
        // traced one gives the layers, the pair the tracing overhead.
        let ops = &ops[..plan.ops_per_cluster()];
        let base = measure(w, &plan, ops, &cfg_for(), false);
        let mut cfg = cfg_for();
        cfg.obs = ObsConfig::on();
        let traced = measure(w, &plan, ops, &cfg, true);
        let layers = report::per_layer(&plan, ops, &traced, &base, work)?;
        println!("# per-layer, traced rerun with ObsConfig::on(); last column: the end-to-end metric and workload it should move");
        let mut out = Values::new();
        for (name, unit, better, moves) in metrics::per_layer() {
            let x = layers[&name];
            println!("{name:<36} {x:>14.4} {unit:<10} {better:<6} {moves}");
            out.insert(name, x);
        }
        extra.push(base);
        extra.push(traced);
        out
    } else {
        END_TO_END
            .iter()
            .filter(|m| m.bound.is_some())
            .map(|m| {
                let x = e2e
                    .get(m.name)
                    .ok_or(format!("{} was not measured", m.name))?;
                Ok((m.name.to_string(), *x))
            })
            .collect::<Result<Values, String>>()?
    };
    let (mut attempted, mut failed) = (0, 0);
    let mut violations = Vec::new();
    let measured = ops
        .chunks(plan.ops_per_cluster())
        .zip(&runs)
        .chain(extra.iter().map(|m| (&ops[..plan.ops_per_cluster()], m)));
    for (ops, m) in measured {
        let t = measure::paced(&plan, ops, &[m], 0);
        let s = measure::saturation(&plan, ops, &[m]);
        attempted += t.attempted() + s.attempted();
        failed += t.failed + s.failed;
        violations.extend(m.violations.iter().cloned());
    }
    Ok(RunResult {
        values,
        attempted,
        failed,
        violations,
    })
}

fn json_line(correct: bool, attempted: usize, failed: usize, values: &Values) -> String {
    let units: BTreeMap<String, &str> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .chain(metrics::per_layer().map(|(name, unit, ..)| (name, unit)))
        .collect();
    let body: Vec<String> = values
        .iter()
        .map(|(k, x)| {
            let x = if x.is_finite() { *x } else { 0.0 };
            format!("\"{k}\": {{\"value\": {x}, \"unit\": \"{}\"}}", units[k])
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // All scratch state (sockets, logs, probe files) stays under the
    // directory the benchmark runs from; a relative path keeps socket
    // paths short.
    let work = PathBuf::from(".bench_build").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &work);
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(r) => {
            for v in &r.violations {
                eprintln!("perfbench: VIOLATION: {v}");
            }
            let correct = r.violations.is_empty();
            println!("{}", json_line(correct, r.attempted, r.failed, &r.values));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
