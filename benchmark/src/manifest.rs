//! `BENCHMARK.json`: rendered from the harness's own tables, and checked
//! against them, so the file at the repository root can never name a
//! workload or a metric the harness does not print.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::json::{self, quote, Json};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::workloads::WORKLOADS;

/// How long one run measures, seconds. The driver's budget is 4 + 22 × 4
/// runs, set-ups and two builds included, in 3420 s; runs of ~22 s (the
/// read-heavy clusters: three set-ups, a 2 s lead-in, this window), ~34 s
/// (write-heavy: slower set-ups, an 8 s lead-in) and ~30 s (simulation) use
/// about three quarters of it on the reference host.
pub const RUN_SECONDS: u64 = 12;

/// The command that builds (first call) and runs the harness from the
/// repository root; the driver appends `--workload … --seed … --seconds …
/// --trace …`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: &[&str] = &["benchmark"];

/// `BENCHMARK.json` at the repository root (one level above this crate).
pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
}

fn string_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", quoted.join(", "))
}

fn metric_line(def: &MetricDef, with_bound: bool) -> String {
    let mut line = format!(
        "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
        quote(def.name),
        quote(def.unit),
        quote(def.better.as_str())
    );
    if with_bound {
        let _ = write!(line, ", \"bound\": {}", def.bound);
    }
    line.push('}');
    line
}

/// Renders the manifest the tables describe.
pub fn render() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END.iter().map(|d| metric_line(d, true)).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|d| metric_line(d, false)).collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        string_list(COMMAND),
        string_list(PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

/// The contract's alphabet for names: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Compares a manifest text with what the harness prints. Returns every
/// disagreement (empty = they agree).
pub fn check(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let actual = match json::parse(text) {
        Ok(doc) => doc,
        Err(error) => return vec![format!("BENCHMARK.json does not parse: {error}")],
    };
    let expected = json::parse(&render()).expect("the rendered manifest is valid JSON");

    let keys = |doc: &Json| -> Vec<String> {
        doc.as_object()
            .map(|map| map.keys().cloned().collect())
            .unwrap_or_default()
    };
    if keys(&actual) != keys(&expected) {
        problems.push(format!(
            "top-level keys are {:?}, expected {:?}",
            keys(&actual),
            keys(&expected)
        ));
    }
    for key in ["command", "paths", "run_seconds"] {
        if actual.get(key) != expected.get(key) {
            problems.push(format!("\"{key}\" differs from the harness's"));
        }
    }
    for section in ["workloads", "end_to_end", "per_layer"] {
        let entries = |doc: &Json| -> Vec<Json> {
            doc.get(section)
                .and_then(Json::as_array)
                .map(<[Json]>::to_vec)
                .unwrap_or_default()
        };
        let name_of = |entry: &Json| {
            entry
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("<unnamed>")
                .to_string()
        };
        let (have, want) = (entries(&actual), entries(&expected));
        for entry in &have {
            let name = name_of(entry);
            if !valid_name(&name) {
                problems.push(format!(
                    "{section}: name {name:?} is outside [A-Za-z0-9_.-]"
                ));
            }
            match want.iter().find(|w| name_of(w) == name) {
                None => problems.push(format!("{section}: {name} is not printed by the harness")),
                Some(w) if w != entry => {
                    problems.push(format!(
                        "{section}: {name} differs from the harness's entry"
                    ));
                }
                Some(_) => {}
            }
        }
        for entry in &want {
            let name = name_of(entry);
            if !have.iter().any(|h| name_of(h) == name) {
                problems.push(format!("{section}: {name} is printed but not listed"));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables as markdown, for `README.md` (which a test holds to
    /// them).
    fn tables() -> String {
        let mut out = String::from("| metric | unit | better | bound |\n|---|---|---|---|\n");
        for def in END_TO_END {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} |",
                def.name,
                def.unit,
                def.better.as_str(),
                def.bound
            );
        }
        out.push_str("\n| metric | unit | better | should move |\n|---|---|---|---|\n");
        for def in PER_LAYER {
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} |",
                def.name,
                def.unit,
                def.better.as_str(),
                def.moves
            );
        }
        out
    }

    #[test]
    fn rendered_manifest_checks_clean_and_fits_the_limits() {
        let text = render();
        assert!(check(&text).is_empty(), "{:?}", check(&text));
        assert!(text.len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
        for def in END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
    }

    #[test]
    fn readme_carries_the_tables() {
        let readme = include_str!("../README.md");
        for line in tables().lines() {
            assert!(readme.contains(line), "README.md lacks the row: {line}");
        }
        for workload in WORKLOADS {
            assert!(readme.contains(workload.name));
        }
    }

    #[test]
    fn drift_between_file_and_harness_is_reported() {
        let renamed = render().replace("\"ops_per_s\"", "\"ops/s\"");
        let problems = check(&renamed);
        assert!(problems.iter().any(|p| p.contains("outside")));
        assert!(problems
            .iter()
            .any(|p| p.contains("ops_per_s is printed but not listed")));
        let rebound = render().replace("\"bound\": 0.25", "\"bound\": 0.2");
        assert!(check(&rebound)
            .iter()
            .any(|p| p.contains("setup_s differs")));
        assert!(!check("{").is_empty());
    }
}
