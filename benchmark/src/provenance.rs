//! Where a number came from: commit, toolchain, host, seed, window lengths,
//! date. Printed with every summary and written into every trace, so an
//! artifact can be read without the shell history that produced it.

use std::process::{Command, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::quote;

/// The provenance of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
    /// Whether the working tree differed from the commit (`unknown` outside
    /// a git checkout).
    pub dirty: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Cores available to this process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// UTC date of the run, `YYYY-MM-DD`.
    pub date: String,
    /// Workload name.
    pub workload: String,
    /// The workload seed.
    pub seed: u64,
    /// Requested length of the measured window, seconds.
    pub window_s: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Whether the reduced `--smoke` sizes were used.
    pub smoke: bool,
}

/// The reference host the bounds were calibrated on. Stated with every
/// result because nothing here scales past it: with two cores shared by the
/// client thread, one worker and one reactor, worker sweeps are out of scope.
pub const REFERENCE_HOST: &str = "2 vCPUs; workers = 1, io_threads = 1; worker sweeps out of scope";

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// Civil date of a day count since 1970-01-01 (proleptic Gregorian).
fn civil_from_days(days: i64) -> (i64, u32, u32) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = yoe + era * 400 + i64::from(month <= 2);
    (year, month, day)
}

impl Provenance {
    /// Collects the provenance of a run about to start.
    pub fn collect(workload: &str, seed: u64, window_s: u64, traced: bool, smoke: bool) -> Self {
        let unknown = || "unknown".to_string();
        let seconds = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let (year, month, day) = civil_from_days((seconds / 86_400) as i64);
        Self {
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown),
            dirty: command_line("git", &["status", "--porcelain"])
                .map_or_else(unknown, |status| (!status.is_empty()).to_string()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            date: format!("{year:04}-{month:02}-{day:02}"),
            workload: workload.to_string(),
            seed,
            window_s,
            traced,
            smoke,
        }
    }

    /// One line for the printed summary.
    pub fn line(&self) -> String {
        format!(
            "provenance: workload={} seed={} window_s={} traced={} smoke={} commit={} dirty={} \
             rustc=\"{}\" nproc={} kernel={} date={} reference_host=\"{REFERENCE_HOST}\"",
            self.workload,
            self.seed,
            self.window_s,
            self.traced,
            self.smoke,
            self.commit,
            self.dirty,
            self.rustc,
            self.nproc,
            self.kernel,
            self.date,
        )
    }

    /// A JSON object for trace files.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"window_s\": {}, \"traced\": {}, \"smoke\": {}, \
             \"commit\": {}, \"dirty\": {}, \"rustc\": {}, \"nproc\": {}, \"kernel\": {}, \
             \"date\": {}, \"reference_host\": {}}}",
            quote(&self.workload),
            self.seed,
            self.window_s,
            self.traced,
            self.smoke,
            quote(&self.commit),
            quote(&self.dirty),
            quote(&self.rustc),
            self.nproc,
            quote(&self.kernel),
            quote(&self.date),
            quote(REFERENCE_HOST),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn civil_dates() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_782), (2024, 2, 29));
        assert_eq!(civil_from_days(20_721), (2026, 9, 25));
        assert_eq!(civil_from_days(-1), (1969, 12, 31));
    }

    #[test]
    fn provenance_renders_as_json() {
        let provenance = Provenance::collect("async_read_heavy", 7, 10, true, false);
        let parsed = json::parse(&provenance.to_json()).expect("provenance is valid JSON");
        assert_eq!(
            parsed.get("workload").and_then(json::Json::as_str),
            Some("async_read_heavy")
        );
        assert_eq!(parsed.get("seed").and_then(json::Json::as_f64), Some(7.0));
        assert!(provenance.nproc >= 1);
        assert_eq!(provenance.date.len(), 10);
        assert!(provenance.line().contains("seed=7"));
    }
}
