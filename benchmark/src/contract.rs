//! `BENCHMARK.json` as the binaries read it. It is the one committed
//! copy of the workload list, the metric names, units, directions and
//! regression bounds, and the input digests; nothing here repeats them.

use serde::Deserialize;

use crate::inputs::Workload;
use crate::report::Metric;

/// Compiled in, so the binaries agree with the file they were built
/// beside wherever they are run from.
const TEXT: &str = include_str!("../../BENCHMARK.json");

/// What introduces a workload's input digest inside its `why`
/// (`BENCHMARK.json` has a fixed set of keys, so the digest for
/// [`crate::inputs::DEFAULT_SEED`] rides at the end of that sentence).
const DIGEST_TAG: &str = "digest 0x";

/// One entry of `workloads`.
#[derive(Clone, Debug, Deserialize)]
pub struct WorkloadSpec {
    /// Name, as `--workload` takes it.
    pub name: String,
    /// Why the workload exists, ending in its input digest.
    pub why: String,
}

/// One entry of `end_to_end` or `per_layer`.
#[derive(Clone, Debug, Deserialize)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Relative worsening that counts as a regression (`end_to_end`
    /// only; `None` on `per_layer`).
    pub bound: Option<f64>,
}

/// What the binaries read of the file (`command` and `paths` are the
/// driver's business).
#[derive(Clone, Debug, Deserialize)]
pub struct Contract {
    /// Seconds one run measures unless `--seconds` says otherwise.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// The gated metrics, in reporting order.
    pub end_to_end: Vec<MetricSpec>,
    /// The per-layer metrics, in reporting order.
    pub per_layer: Vec<MetricSpec>,
}

impl Contract {
    /// Parses the compiled-in `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// A message when the file is not the JSON the binaries expect, or
    /// lists other workloads than [`Workload::ALL`].
    pub fn load() -> Result<Contract, String> {
        let contract: Contract =
            serde_json::from_str(TEXT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let listed = contract.workloads.iter().map(|w| w.name.as_str());
        if !listed.eq(Workload::ALL.map(Workload::name)) {
            return Err("BENCHMARK.json lists other workloads than the benchmark runs".into());
        }
        Ok(contract)
    }

    /// The committed input digest of `workload` for the default seed.
    pub fn digest(&self, workload: &str) -> Option<u64> {
        let why = &self.workloads.iter().find(|w| w.name == workload)?.why;
        let hex = &why[why.find(DIGEST_TAG)? + DIGEST_TAG.len()..];
        let end = hex
            .find(|c: char| !c.is_ascii_hexdigit())
            .unwrap_or(hex.len());
        u64::from_str_radix(&hex[..end], 16).ok()
    }

    /// What differs between the `reported` metrics and `committed`
    /// (`end_to_end` or `per_layer`): a name or unit the binary prints
    /// that the file does not list in that place.
    pub fn mismatches(committed: &[MetricSpec], reported: &[Metric]) -> Vec<String> {
        let mut wrong: Vec<String> = committed
            .iter()
            .zip(reported)
            .filter(|(c, r)| c.name != r.name || c.unit != r.unit)
            .map(|(c, r)| {
                format!(
                    "reports {} [{}] where BENCHMARK.json lists {} [{}]",
                    r.name, r.unit, c.name, c.unit
                )
            })
            .collect();
        if committed.len() != reported.len() {
            wrong.push(format!(
                "reports {} metrics where BENCHMARK.json lists {}",
                reported.len(),
                committed.len()
            ));
        }
        wrong
    }
}
