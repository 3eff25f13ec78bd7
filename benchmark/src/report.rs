//! Output: one `workload metric value unit n=<samples>` line per metric,
//! the driver's one-line JSON result, and the host header.

use crate::contract::Contract;
use crate::inputs::{Inputs, Workload, DEFAULT_SEED};
use crate::stats::{median, quantile};
use crate::workloads::Measured;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

/// Generator lateness (p99) above which a paced run says more about the
/// host than about the program.
pub const MAX_LAG_P99_US: f64 = 5_000.0;

/// The end-to-end metrics of one run, in `BENCHMARK.json`'s order.
pub fn end_to_end(m: &mut Measured) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: median(&m.setup_s),
            unit: "s",
            n: m.setup_s.len(),
        },
        Metric {
            name: "events_per_s",
            value: m.window.rate_per_s(),
            unit: "events/s",
            n: m.window.work() as usize,
        },
        Metric {
            name: "deliver_p50_us",
            value: m.window.quantile_ns(0.5) / 1e3,
            unit: "us",
            n: m.window.count(),
        },
        Metric {
            name: "bytes_per_sub",
            value: median(&m.bytes_per_sub),
            unit: "bytes",
            n: m.bytes_per_sub.len(),
        },
        Metric {
            name: "cost_saving_pct",
            value: m.cost_saving_pct,
            unit: "%",
            n: 1,
        },
    ]
}

/// p99 of how late the generator wrote its paced publishes, µs (0 for
/// workloads without a schedule).
pub fn lag_p99_us(m: &Measured) -> f64 {
    let mut lag = m.lag_ns.clone();
    lag.sort_unstable();
    quantile(&lag, 0.99) / 1e3
}

/// Compares the generated inputs' digest with the one committed in
/// `BENCHMARK.json` when the seed is the default; any other seed skips
/// the comparison.
pub fn check_digest(contract: &Contract, inputs: &Inputs, seed: u64, wrong: &mut Vec<String>) {
    if seed != DEFAULT_SEED {
        return;
    }
    match contract.digest(inputs.workload.name()) {
        Some(want) if want == inputs.digest => {}
        Some(want) => wrong.push(format!(
            "input digest {:#018x} differs from the committed {want:#018x}: the generators changed the load",
            inputs.digest
        )),
        None => wrong.push(format!(
            "BENCHMARK.json commits no input digest for {}",
            inputs.workload.name()
        )),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The metrics as a JSON object `{"name": {"value": v, "unit": "u"}}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// One run of one workload, as reported.
#[derive(Clone, Debug)]
pub struct Row {
    /// The workload.
    pub workload: Workload,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations refused, shed, errored, lost, duplicated or wrong.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json`'s order.
    pub metrics: Vec<Metric>,
}

/// The line the driver reads: the last line of standard output.
pub fn driver_line(row: &Row) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        row.correct,
        row.attempted.max(1),
        row.failed,
        metrics_json(&row.metrics)
    )
}

/// Prints `workload metric value unit n=<samples>` per metric.
pub fn print_metrics(workload: Workload, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{} {} {} {} n={}",
            workload.name(),
            m.name,
            json_number(m.value),
            m.unit,
            m.n
        );
    }
}

fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| reference.to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Share of the machine's CPU time the hypervisor gave to someone else
/// above which a run says more about the host than about the program.
pub const MAX_STEAL_PCT: f64 = 10.0;

/// `(stolen, total)` CPU time of the whole machine so far, in ticks,
/// from the first line of `/proc/stat`; zeros where there is none.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Measures how much of the machine's CPU time was stolen while the
/// benchmark ran.
#[derive(Clone, Copy, Debug)]
pub struct StealClock((u64, u64));

impl StealClock {
    /// Starts measuring.
    pub fn start() -> Self {
        StealClock(cpu_ticks())
    }

    /// Stolen CPU time since [`StealClock::start`], in percent of all
    /// CPU time.
    pub fn steal_pct(self) -> f64 {
        let (stolen, total) = cpu_ticks();
        100.0 * stolen.saturating_sub(self.0 .0) as f64
            / total.saturating_sub(self.0 .1).max(1) as f64
    }
}

/// The uniform host header as `(key, value)` pairs; `lag_p99_us` is the
/// worst generator lateness seen and `steal_pct` the host's stolen CPU
/// share. A run on fewer than two cores, from a debug build, with a
/// late generator or on a host that took more than [`MAX_STEAL_PCT`] of
/// the CPU away is labelled invalid here instead of being read as a
/// regression.
pub fn host_header(
    seed: u64,
    seconds: u64,
    lag_p99_us: f64,
    steal_pct: f64,
) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut invalid = Vec::new();
    if nproc < 2 {
        invalid.push("nproc < 2");
    }
    if cfg!(debug_assertions) {
        invalid.push("debug build");
    }
    if lag_p99_us > MAX_LAG_P99_US {
        invalid.push("generator lag p99 above 5 ms");
    }
    if steal_pct > MAX_STEAL_PCT {
        invalid.push("host stole more than 10% of the CPU");
    }
    vec![
        ("commit", commit()),
        ("nproc", nproc.to_string()),
        // ServingConfig::default() and publish_batch(.., None) both
        // resolve to the available parallelism.
        ("executors", nproc.to_string()),
        ("batch_workers", nproc.to_string()),
        (
            "simd",
            pubsub_stree::simd::active_level().name().to_string(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("transport", "loopback, one connection".to_string()),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("gen_lag_p99_us", json_number(lag_p99_us)),
        ("host_steal_pct", format!("{steal_pct:.1}")),
        (
            "valid",
            if invalid.is_empty() {
                "true".to_string()
            } else {
                format!("false ({})", invalid.join(", "))
            },
        ),
    ]
}

/// Prints the header as `# key: value` lines.
pub fn print_header(header: &[(&'static str, String)]) {
    for (k, v) in header {
        println!("# {k}: {v}");
    }
}

/// `result.json`: the header and every workload's metrics.
pub fn result_json(header: &[(&'static str, String)], rows: &[Row]) -> String {
    let head: Vec<String> = header
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let rows: Vec<String> = rows
        .iter()
        .map(|row| format!("    \"{}\": {}", row.workload.name(), driver_line(row)))
        .collect();
    format!(
        "{{\n  \"header\": {{{}}},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        head.join(", "),
        rows.join(",\n")
    )
}
