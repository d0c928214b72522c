//! Machine fingerprint and process memory, recorded with every result so
//! later comparisons can refuse to compare across machines.

/// Where a result was measured.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// First `model name` of `/proc/cpuinfo` (`unknown` elsewhere).
    pub cpu: String,
}

impl Fingerprint {
    /// Reads the fingerprint of the current machine.
    pub fn current() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            cpu,
        }
    }

    /// One line for the run log.
    pub fn line(&self) -> String {
        format!(
            "machine nproc={} rustc=\"{}\" cpu=\"{}\"",
            self.nproc, self.rustc, self.cpu
        )
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB, if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
