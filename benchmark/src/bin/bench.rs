//! The end-to-end benchmark: every workload with tracing off, outputs
//! checked, every end-to-end metric printed by name.
//!
//! `--workload <name> --seed <n> --seconds <n> --trace 0` runs one
//! workload and ends with the driver's one-line JSON. Without
//! `--workload` it runs all five and also writes
//! `benchmark/out/result.json`. `--aa` measures the same commit as two
//! sides and fails if their medians disagree by more than a metric's
//! bound.

use std::process::ExitCode;

use pubsub_benchmark::args::{self, Args};
use pubsub_benchmark::contract::Contract;
use pubsub_benchmark::inputs::{self, Workload};
use pubsub_benchmark::report::{self, Row, StealClock};
use pubsub_benchmark::spans::Off;
use pubsub_benchmark::stats::{median, quantile, spread};
use pubsub_benchmark::workloads::{self, Plan, OUT_DIR};

/// Runs per side and workload under `--aa`, the two sides alternating.
/// One 10 s run on a shared two-core host spreads 5 to 15% (distance
/// between quartiles over the median), so a single pair tests the host;
/// medians of five differ by more than 0.25 about once in a thousand
/// comparisons. (The driver compares medians of ten.)
const AA_REPEATS: usize = 5;

/// How far apart the two sides' failed shares may be, absolute.
const AA_FAILED_SHARE: f64 = 0.001;

fn run_one(
    contract: &Contract,
    workload: Workload,
    args: &Args,
    worst_lag_us: &mut f64,
) -> std::io::Result<Row> {
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let inputs = inputs::generate(workload, args.seed);
    println!(
        "# {} input digest: {:#018x}",
        workload.name(),
        inputs.digest
    );
    let plan = Plan::full(workload, seconds);
    let mut m = workloads::run(&inputs, plan, &mut Off)?;
    report::check_digest(contract, &inputs, args.seed, &mut m.wrong);
    if workload == Workload::ServeChurn {
        let mut ops = m.ctl_ops_ns.clone();
        ops.sort_unstable();
        eprintln!(
            "{}: {} control ops, call -> durable ack p50 {:.1} us; recover p50 {:.4} s",
            workload.name(),
            ops.len(),
            quantile(&ops, 0.5) / 1e3,
            median(&m.broker_s),
        );
    }
    *worst_lag_us = worst_lag_us.max(report::lag_p99_us(&m));
    let metrics = report::end_to_end(&mut m);
    m.wrong
        .extend(Contract::mismatches(&contract.end_to_end, &metrics));
    for w in &m.wrong {
        eprintln!("{}: WRONG: {w}", workload.name());
    }
    report::print_metrics(workload, &metrics);
    Ok(Row {
        workload,
        correct: m.wrong.is_empty(),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    })
}

/// `--aa`: [`AA_REPEATS`] runs per side of every selected workload, the
/// sides alternating so that both see the same stretch of the host.
/// Prints, per metric × workload, both medians, how much worse the
/// second is, the bound and a verdict: `ok`; `OUTSIDE`; or `unresolved`
/// when they differ by more than the bound but one side's own runs
/// spread wider than the bound too, which says the host moved, not the
/// program. Returns whether all runs were correct and nothing was
/// `OUTSIDE`.
fn aa(
    contract: &Contract,
    workloads: &[Workload],
    args: &Args,
    lag: &mut f64,
) -> std::io::Result<bool> {
    let mut ok = true;
    let mut table = Vec::new();
    for &workload in workloads {
        let mut sides: [Vec<Row>; 2] = [Vec::new(), Vec::new()];
        for repeat in 0..AA_REPEATS {
            for (side, name) in ["first", "second"].into_iter().enumerate() {
                println!("# A/A {} {name} side, run {}", workload.name(), repeat + 1);
                let row = run_one(contract, workload, args, lag)?;
                ok &= row.correct;
                sides[side].push(row);
            }
        }
        for (i, spec) in contract.end_to_end.iter().enumerate() {
            let values =
                |rows: &[Row]| -> Vec<f64> { rows.iter().map(|r| r.metrics[i].value).collect() };
            let (first, second) = (values(&sides[0]), values(&sides[1]));
            let (a, b) = (median(&first), median(&second));
            let worse = if spec.better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let bound = spec.bound.unwrap_or(0.0);
            let widest = spread(&first).max(spread(&second));
            let verdict = if worse.abs() <= bound {
                "ok"
            } else if widest > bound {
                "unresolved"
            } else {
                ok = false;
                "OUTSIDE"
            };
            table.push(format!(
                "{} {} {a} {b} {worse:+.4} {bound} {widest:.4} {verdict}",
                workload.name(),
                spec.name,
            ));
        }
        let failed_share = |rows: &[Row]| {
            let (failed, attempted) = rows
                .iter()
                .fold((0, 0), |(f, a), r| (f + r.failed, a + r.attempted));
            failed as f64 / attempted.max(1) as f64
        };
        let (a, b) = (failed_share(&sides[0]), failed_share(&sides[1]));
        let within = (a - b).abs() <= AA_FAILED_SHARE;
        ok &= within;
        table.push(format!(
            "{} failed_share {a} {b} {:+.4} {AA_FAILED_SHARE} 0 {}",
            workload.name(),
            b - a,
            if within { "ok" } else { "OUTSIDE" }
        ));
    }
    println!(
        "# A/A medians of {AA_REPEATS}: workload metric first second worse_by bound widest_spread verdict"
    );
    for line in table {
        println!("{line}");
    }
    Ok(ok)
}

fn run(args: &Args) -> Result<bool, String> {
    let contract = Contract::load()?;
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let could_not = |e| format!("benchmark could not run: {e}");
    let seconds = args.seconds.unwrap_or(contract.run_seconds);
    let mut lag = 0.0;
    let steal = StealClock::start();
    if args.aa {
        let ok = aa(&contract, &workloads, args, &mut lag).map_err(could_not)?;
        let header = report::host_header(args.seed, seconds, lag, steal.steal_pct());
        report::print_header(&header);
        return Ok(ok);
    }
    let rows: Vec<Row> = workloads
        .iter()
        .map(|&w| run_one(&contract, w, args, &mut lag))
        .collect::<Result<_, _>>()
        .map_err(could_not)?;
    let header = report::host_header(args.seed, seconds, lag, steal.steal_pct());
    report::print_header(&header);
    match rows.as_slice() {
        [row] if args.workload.is_some() => println!("{}", report::driver_line(row)),
        _ => {
            let path = std::path::Path::new(OUT_DIR).join("result.json");
            let written = std::fs::create_dir_all(OUT_DIR)
                .and_then(|()| std::fs::write(&path, report::result_json(&header, &rows)));
            match written {
                Ok(()) => println!("# wrote {}", path.display()),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
    }
    Ok(rows.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let args = match args::parse() {
        Ok(a) if a.trace => {
            eprintln!("bench measures with tracing off; --trace 1 is the trace binary (benchmark/run.sh picks it)");
            return ExitCode::from(2);
        }
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
