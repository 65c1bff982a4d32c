//! The Ampere benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dc-wide|sharded-fleet|row-long-chaos> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` prints the per-layer metrics of a traced run (plus the
//! untraced run it is checked against). The last line of standard
//! output is the result object; the line before it is the provenance.
//! `--check-workers` instead compares the `sharded-fleet` checksum at
//! one and two workers. See `perfbench/README.md`.

mod run;
mod shapes;
mod stats;
mod traced;

use std::process::ExitCode;

use run::{Outcome, Traced, Untraced};
use shapes::Shape;
use stats::{json_str, median, metric, Check, Metric};
use traced::Span;

/// The bound of `tick_p50_ms` in `BENCHMARK.json`: in a steady window
/// the job population, which tick time follows, may not grow by more
/// than this from the first quarter to the last.
const LATE_OVER_EARLY_BOUND: f64 = 0.25;

/// Reference outcomes: `workload seed window_ticks checksum placed violations`.
const REFERENCE: &str = include_str!("../reference.tsv");

struct Args {
    shape: Shape,
    seed: u64,
    seconds: u64,
    trace: bool,
    check_workers: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut check_workers) = (None, None, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--check-workers" {
            check_workers = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let shape = shapes::by_name(&name).ok_or_else(|| {
        let names: Vec<_> = shapes::ALL.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    Ok(Args {
        shape,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        check_workers,
    })
}

/// The stored outcome of `(workload, seed, window)`, if shipped.
fn reference(workload: &str, seed: u64, window: u64) -> Option<Outcome> {
    REFERENCE.lines().find_map(|line| {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 || f[0].starts_with('#') || f[0] != workload {
            return None;
        }
        (f[1].parse() == Ok(seed) && f[2].parse() == Ok(window)).then(|| Outcome {
            checksum: u64::from_str_radix(f[3], 16).expect("hex checksum in reference.tsv"),
            placed: f[4].parse().expect("placed count in reference.tsv"),
            violations: f[5].parse().expect("violation count in reference.tsv"),
        })
    })
}

fn reference_check(shape: &Shape, seed: u64, window: u64, got: Outcome) -> Option<Check> {
    let want = reference(shape.name, seed, window)?;
    Some(Check {
        name: "reference".into(),
        ok: want == got,
        detail: format!(
            "checksum {:016x} placed {} violations {} (reference {:016x} {} {})",
            got.checksum, got.placed, got.violations, want.checksum, want.placed, want.violations
        ),
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checkout's git revision, read from `./.git` only (a benchmark
/// checkout without one reports `unknown`).
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(
    args: &Args,
    window: u64,
    repeats: usize,
    outcome: Outcome,
    checks: &[Check],
) -> String {
    let s = &args.shape;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let checks: Vec<String> = checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\": {}, \"ok\": {}, \"detail\": {}}}",
                json_str(&c.name),
                c.ok,
                json_str(&c.detail)
            )
        })
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"git_revision\": {}, \
         \"rustc\": {}, \"cpu_model\": {}, \"nproc\": {nproc}, \"rows\": {}, \
         \"servers_per_row\": {}, \"servers\": {}, \"workers\": {}, \"profile\": {}, \
         \"fault_plan\": {}, \"calibration_ticks\": {}, \"warmup_ticks\": {}, \
         \"window_ticks\": {window}, \"setup_repeats\": {repeats}, \"seconds\": {}}}, \
         \"outcome\": {{\"checksum\": \"{:016x}\", \"placed\": {}, \"violations\": {}}}, \
         \"checks\": [{}]}}",
        json_str(s.name),
        args.seed,
        u8::from(args.trace),
        json_str(&git_revision()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&cpu_model()),
        s.rows,
        s.servers_per_row(),
        s.servers(),
        s.workers,
        json_str(s.profile),
        json_str(s.fault_plan),
        s.calibration_ticks,
        s.warmup_ticks,
        args.seconds,
        outcome.checksum,
        outcome.placed,
        outcome.violations,
        checks.join(", ")
    )
}

/// The warm-up guard. It gates on the resident-job population, which
/// the seed alone fixes, rather than on the tick time that follows it:
/// host speed drifts by more than the bound within one run, so a tick
/// time gate would fail runs whose warm-up was long enough.
fn steady_window_check(shape: &Shape, u: &Untraced) -> Option<Check> {
    let population = stats::late_over_early(&u.resident);
    shape.gate_late_over_early.then(|| Check {
        name: "steady-window".into(),
        ok: population <= 1.0 + LATE_OVER_EARLY_BOUND,
        detail: format!(
            "late/early resident jobs {population:.4} (limit {:.2}); tick p50 {:.4}",
            1.0 + LATE_OVER_EARLY_BOUND,
            stats::late_over_early(&u.tick_s)
        ),
    })
}

fn end_to_end(shape: &Shape, window: u64, u: &Untraced) -> Vec<Metric> {
    let tick_ms: Vec<f64> = u.tick_s.iter().map(|t| t * 1e3).collect();
    let setup_s = median(&u.setups.iter().map(|s| s.total()).collect::<Vec<_>>());
    let sim_days = window as f64 / shapes::DAY_MINS as f64;
    vec![
        metric(
            "server_ticks_per_s",
            shape.servers() as f64 * window as f64 / u.window_s,
            "server-ticks/s",
        ),
        metric("tick_p50_ms", median(&tick_ms), "ms"),
        metric(
            "tick_p90_ms",
            stats::tail(&tick_ms, 0.9).expect("the window resolves p90"),
            "ms",
        ),
        metric("setup_s", setup_s, "s"),
        metric("time_to_result_s", setup_s + u.window_s + u.finish_s, "s"),
        metric("peak_rss_mb", run::rss_kb().1 as f64 / 1024.0, "MB"),
        metric(
            "rss_growth_mb_per_sim_day",
            (u.rss_end_kb as f64 - u.rss_start_kb as f64) / 1024.0 / sim_days,
            "MB/sim-day",
        ),
        metric("sim_placed_jobs", u.outcome.placed as f64, "jobs"),
    ]
}

fn per_layer(u: &Untraced, t: &Traced) -> Vec<Metric> {
    let n = t.ticks.len() as f64;
    let us = |ns: u64| ns as f64 / 1e3;
    let wall_total: u64 = t.wall_ns.iter().sum();
    // The traced tick's capacity: every worker for the whole wall time.
    let capacity = (t.workers as u64 * wall_total) as f64;
    let span_us = |s: Span| median(&t.ticks.iter().map(|x| us(x.get(s))).collect::<Vec<_>>());
    let span_share = |s: Span| t.ticks.iter().map(|x| x.get(s)).sum::<u64>() as f64 / capacity;
    let mean =
        |f: &dyn Fn(&traced::TickTrace) -> u64| t.ticks.iter().map(f).sum::<u64>() as f64 / n;
    let total = |f: &dyn Fn(&traced::TickTrace) -> u64| t.ticks.iter().map(f).sum::<u64>();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    let refit_us: Vec<f64> = t
        .ticks
        .iter()
        .filter(|x| x.refits > 0)
        .map(|x| us(x.get(Span::Refit)) / x.refits as f64)
        .collect();
    let last_refit_points = t
        .ticks
        .iter()
        .rev()
        .find(|x| x.refits > 0)
        .map_or(0, |x| x.refit_points);
    let attributed: u64 = t.ticks.iter().map(|x| x.ns.iter().sum::<u64>()).sum();
    let busy_total: u64 = t.busy_ns.iter().sum();
    let traced_p50 = median(&t.wall_ns.iter().map(|&w| w as f64).collect::<Vec<_>>());
    let untraced_p50 = median(&u.tick_s) * 1e9;

    let mut m = vec![
        metric("setup.build_s", t.setup.build_s, "s"),
        metric("setup.calibrate_s", t.setup.calibrate_s, "s"),
        metric("setup.warmup_s", t.setup.warmup_s, "s"),
    ];
    let layers: [(&'static str, &'static str, Span); 13] = [
        ("workload.tick_us", "workload.tick_share", Span::Workload),
        (
            "scheduler.dispatch_us",
            "scheduler.dispatch_share",
            Span::Dispatch,
        ),
        ("scheduler.rpc_us", "scheduler.rpc_share", Span::Rpc),
        (
            "cluster.dvfs_reset_us",
            "cluster.dvfs_reset_share",
            Span::DvfsReset,
        ),
        ("cluster.advance_us", "cluster.advance_share", Span::Advance),
        ("cluster.sample_us", "cluster.sample_share", Span::Sample),
        ("power.cap_us", "power.cap_share", Span::Cap),
        ("power.ingest_us", "power.ingest_share", Span::Ingest),
        ("power.breaker_us", "power.breaker_share", Span::Breaker),
        ("core.decide_us", "core.decide_share", Span::Decide),
        ("core.refit_us", "core.refit_share", Span::Refit),
        ("faults.corrupt_us", "faults.corrupt_share", Span::Corrupt),
        (
            "experiments.record_us",
            "experiments.record_share",
            Span::Record,
        ),
    ];
    for (us_name, share_name, span) in layers {
        let value = if span == Span::Refit {
            if refit_us.is_empty() {
                0.0
            } else {
                median(&refit_us)
            }
        } else {
            span_us(span)
        };
        m.push(metric(us_name, value, "us"));
        m.push(metric(share_name, span_share(span), "share"));
    }
    m.extend([
        metric("workload.jobs_per_tick", mean(&|x| x.jobs), "jobs/tick"),
        metric(
            "scheduler.placed_per_tick",
            mean(&|x| x.placed),
            "jobs/tick",
        ),
        metric(
            "scheduler.queued_after_dispatch",
            mean(&|x| x.queued),
            "jobs",
        ),
        metric(
            "scheduler.place_ratio",
            ratio(total(&|x| x.placed), total(&|x| x.placed + x.queued)),
            "ratio",
        ),
        metric(
            "scheduler.rpc_calls_per_tick",
            mean(&|x| x.rpc_calls),
            "calls/tick",
        ),
        metric(
            "scheduler.rpc_noop_share",
            ratio(
                total(&|x| x.rpc_noops),
                total(&|x| x.rpc_calls - x.rpc_lost),
            ),
            "share",
        ),
        metric(
            "cluster.completions_per_tick",
            mean(&|x| x.completions),
            "jobs/tick",
        ),
        metric("cluster.resident_jobs", t.resident_jobs as f64, "jobs"),
        metric("cluster.arena_slots", t.arena_slots as f64, "slots"),
        metric(
            "power.capped_servers_per_tick",
            mean(&|x| x.capped),
            "servers/tick",
        ),
        metric("power.tsdb_points", t.tsdb_points as f64, "points"),
        metric(
            "core.freezes_per_tick",
            mean(&|x| x.freezes),
            "servers/tick",
        ),
        metric(
            "core.unfreezes_per_tick",
            mean(&|x| x.unfreezes),
            "servers/tick",
        ),
        metric(
            "core.degraded_ticks",
            total(&|x| x.degraded) as f64,
            "domain-ticks",
        ),
        metric(
            "core.refit_history_points",
            last_refit_points as f64,
            "points",
        ),
        metric(
            "faults.dropped_share",
            ratio(total(&|x| x.dropped), total(&|x| x.samples)),
            "share",
        ),
        metric(
            "faults.rpc_lost_share",
            ratio(total(&|x| x.rpc_lost), total(&|x| x.rpc_calls)),
            "share",
        ),
        metric("faults.outage_ticks", total(&|x| x.outage) as f64, "ticks"),
        metric(
            "par.tick_wall_us",
            median(&t.wall_ns.iter().map(|&w| us(w)).collect::<Vec<_>>()),
            "us",
        ),
        metric(
            "par.shard_busy_us",
            median(
                &t.busy_ns
                    .iter()
                    .map(|&b| us(b) / t.workers as f64)
                    .collect::<Vec<_>>(),
            ),
            "us",
        ),
        metric(
            "par.barrier_wait_share",
            1.0 - busy_total as f64 / capacity,
            "share",
        ),
        metric(
            "experiments.late_over_early",
            stats::late_over_early(&u.tick_s),
            "ratio",
        ),
        metric(
            "experiments.population_late_over_early",
            stats::late_over_early(&u.resident),
            "ratio",
        ),
        metric(
            "experiments.sim_violation_ticks",
            u.outcome.violations as f64,
            "domain-ticks",
        ),
        metric("trace.tick_p50_us", traced_p50 / 1e3, "us"),
        metric(
            "trace.unattributed_share",
            (busy_total as f64 - attributed as f64) / capacity,
            "share",
        ),
        metric(
            "trace.overhead_share",
            traced_p50 / untraced_p50 - 1.0,
            "share",
        ),
    ]);
    m
}

fn check_workers(args: &Args) -> ExitCode {
    let shape = shapes::SHARDED_FLEET;
    let window = shape.window_ticks(args.seconds);
    let one = run::sharded_checksum(&shape, args.seed, 1, window);
    let two = run::sharded_checksum(&shape, args.seed, 2, window);
    println!(
        "{{\"check\": \"sharded-fleet workers\", \"seed\": {}, \"ticks\": {}, \
         \"checksum_1\": \"{one:016x}\", \"checksum_2\": \"{two:016x}\", \"equal\": {}}}",
        args.seed,
        shape.warmup_ticks + window,
        one == two
    );
    if one == two {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.check_workers {
        return check_workers(&args);
    }
    let shape = args.shape;
    let window = shape.window_ticks(args.seconds);
    let repeats = if args.trace { 1 } else { shape.setup_repeats };

    let u = run::untraced(&shape, args.seed, window, repeats);
    let mut checks = u.checks.clone();
    checks.extend(reference_check(&shape, args.seed, window, u.outcome));
    checks.extend(steady_window_check(&shape, &u));
    let metrics = if args.trace {
        let t = run::traced(&shape, args.seed, window);
        checks.push(Check {
            name: "traced-checksum".into(),
            ok: t.checksum == u.outcome.checksum,
            detail: format!(
                "traced {:016x}, untraced {:016x}",
                t.checksum, u.outcome.checksum
            ),
        });
        per_layer(&u, &t)
    } else {
        end_to_end(&shape, window, &u)
    };

    let failed = checks.iter().filter(|c| !c.ok).count() as u64;
    for c in checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check {} failed: {}", c.name, c.detail);
    }
    println!("{}", provenance(&args, window, repeats, u.outcome, &checks));
    // Operations: every measured tick, plus every output check.
    let attempted = window + checks.len() as u64;
    println!(
        "{}",
        stats::result_line(failed == 0, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lines_parse_and_name_known_workloads() {
        for line in REFERENCE
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 6, "{line}");
            let shape = shapes::by_name(f[0]).expect("known workload");
            let (seed, window) = (f[1].parse().unwrap(), f[2].parse().unwrap());
            assert!(reference(shape.name, seed, window).is_some(), "{line}");
        }
        assert!(reference("sharded-fleet", u64::MAX, 1).is_none());
    }

    #[test]
    fn steady_window_limit_is_the_tick_p50_bound() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let entry = &json[json.find("\"tick_p50_ms\"").expect("tick_p50_ms metric")..];
        let bound = &entry[entry.find("\"bound\"").expect("bound") + 8..];
        let bound: f64 = bound
            .trim_start_matches([' ', ':'])
            .split(|c: char| c != '.' && !c.is_ascii_digit())
            .next()
            .and_then(|v| v.parse().ok())
            .expect("numeric bound");
        assert_eq!(bound, LATE_OVER_EARLY_BOUND);
    }

    #[test]
    fn steady_window_guard_catches_a_short_warm_up() {
        let shape = |warmup_ticks| Shape {
            rows: 3,
            warmup_ticks,
            ..shapes::SHARDED_FLEET
        };
        let verdict = |warmup| {
            let s = shape(warmup);
            let u = run::untraced(&s, 2, 100, 1);
            steady_window_check(&s, &u)
                .expect("sharded-fleet is gated")
                .ok
        };
        assert!(!verdict(0), "a cold start must fail the guard");
        assert!(verdict(shapes::SHARDED_FLEET.warmup_ticks));
        assert!(steady_window_check(
            &shapes::ROW_LONG_CHAOS,
            &run::untraced(
                &Shape {
                    racks_per_row: 2,
                    servers_per_rack: 8,
                    calibration_ticks: 60,
                    warmup_ticks: 0,
                    ..shapes::ROW_LONG_CHAOS
                },
                2,
                100,
                1,
            )
        )
        .is_none());
    }

    #[test]
    fn metric_sets_use_valid_unique_names() {
        let shape = Shape {
            racks_per_row: 2,
            servers_per_rack: 8,
            calibration_ticks: 60,
            warmup_ticks: 20,
            ..shapes::ROW_LONG_CHAOS
        };
        let u = run::untraced(&shape, 1, 100, 2);
        let t = run::traced(&shape, 1, 100);
        for set in [end_to_end(&shape, 100, &u), per_layer(&u, &t)] {
            let mut names: Vec<_> = set.iter().map(|m| m.name).collect();
            assert!(names.iter().all(|n| stats::valid_metric_name(n)));
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), set.len(), "duplicate metric name");
        }
    }
}
