//! Command line of both binaries.

use crate::inputs::{Workload, DEFAULT_SEED};

/// Parsed arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--workload <name>`; `None` runs every workload.
    pub workload: Option<Workload>,
    /// `--seed <n>`: every generated input derives from it.
    pub seed: u64,
    /// `--seconds <n>`: measured time per workload; `None` means
    /// `run_seconds` of `BENCHMARK.json`.
    pub seconds: Option<u64>,
    /// `--trace <0|1>`.
    pub trace: bool,
    /// `--aa`: measure the same commit as two alternating sides and hold
    /// their medians against the bounds.
    pub aa: bool,
}

/// Parses `std::env::args`.
///
/// # Errors
///
/// A message naming the bad flag or value.
pub fn parse() -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        aa: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                out.workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?}; one of: {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
                out.seconds = Some(seconds);
            }
            "--trace" => {
                out.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--aa" => out.aa = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}
