//! # rr-bench — evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation and
//! benchmarks the toolchain. The tables below are the experiment index.
//!
//! Table/figure binaries (run with `cargo run --release -p rr-bench --bin <name>`):
//!
//! | binary                     | reproduces                      |
//! |----------------------------|---------------------------------|
//! | `tables_local_patterns`    | Tables I, II, III               |
//! | `table4_overhead`          | Table IV                        |
//! | `table5_code_size`         | Table V                         |
//! | `vuln_reduction`           | §V-C vulnerability counts       |
//! | `fig2_fixed_point`         | Fig. 2 loop convergence         |
//! | `fig5_cfg`                 | Figs. 4–5 hardened branch CFG   |
//! | `ablation_checksum_copies` | design ablation (1 vs 2 copies) |
//!
//! Criterion benches (`cargo bench -p rr-bench`): `emulator`, `campaign`,
//! `rewriting`, `pipelines`, plus eight CI-gated benches — `engine`,
//! `memory`, `incremental`, `multifault`, `blockexec`, `uop`, `uopopt`
//! and `analysis` — each of which also emits a machine-readable
//! `BENCH_<name>.json` record ([`write_bench_json`]) into
//! `target/bench-results/` so the perf trajectory is tracked across
//! commits.

#![forbid(unsafe_code)]

/// Renders a percentage for table output.
pub fn pct(value: f64) -> String {
    format!("{value:8.2}%")
}

/// Prints a horizontal rule sized for the tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// A JSON scalar for [`write_bench_json`].
#[derive(Debug, Clone)]
pub enum BenchValue {
    /// A number (speedups, gates, percentages, counts).
    Num(f64),
    /// A string (names, units).
    Str(String),
    /// A flag (e.g. whether the gate passed).
    Bool(bool),
}

impl From<f64> for BenchValue {
    fn from(value: f64) -> BenchValue {
        BenchValue::Num(value)
    }
}

impl From<&str> for BenchValue {
    fn from(value: &str) -> BenchValue {
        BenchValue::Str(value.to_owned())
    }
}

impl From<bool> for BenchValue {
    fn from(value: bool) -> BenchValue {
        BenchValue::Bool(value)
    }
}

/// Why a [`write_bench_json`] record could not be written.
#[derive(Debug)]
pub struct BenchJsonError {
    /// The directory or file the failed operation targeted.
    pub path: std::path::PathBuf,
    /// The underlying filesystem error.
    pub source: std::io::Error,
}

impl std::fmt::Display for BenchJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot write bench record `{}`: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for BenchJsonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Writes a machine-readable benchmark record to `BENCH_<name>.json`
/// (one flat JSON object; a `"name"` field is prepended automatically),
/// so the perf trajectory of the gated benchmarks can be tracked across
/// commits without scraping human-oriented log lines.
///
/// The file lands in `$RR_BENCH_JSON_DIR` when set, else in the
/// workspace's `target/bench-results/` (next to the other build
/// artifacts, outside version control); the directory is created if
/// missing. Keys after the leading `"name"` are emitted in sorted order
/// so records diff cleanly across commits regardless of call-site
/// argument order. Returns the path written.
///
/// # Errors
///
/// Returns a [`BenchJsonError`] naming the path when the results
/// directory cannot be created or the record cannot be written.
pub fn write_bench_json(
    name: &str,
    fields: &[(&str, BenchValue)],
) -> Result<std::path::PathBuf, BenchJsonError> {
    let dir =
        std::env::var_os("RR_BENCH_JSON_DIR").map(std::path::PathBuf::from).unwrap_or_else(|| {
            // CARGO_MANIFEST_DIR is crates/bench at bench runtime; the
            // workspace target dir sits two levels up.
            std::env::var_os("CARGO_MANIFEST_DIR")
                .map(|m| std::path::PathBuf::from(m).join("../../target/bench-results"))
                .unwrap_or_else(|| std::path::PathBuf::from("."))
        });
    std::fs::create_dir_all(&dir).map_err(|source| BenchJsonError { path: dir.clone(), source })?;
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut sorted: Vec<&(&str, BenchValue)> = fields.iter().collect();
    sorted.sort_by_key(|(key, _)| *key);
    let mut body = format!("{{\n  \"name\": {}", json_string(name));
    for (key, value) in sorted {
        let rendered = match value {
            // JSON has no NaN/Inf; clamp to null rather than emit
            // invalid output from a degenerate measurement.
            BenchValue::Num(n) if n.is_finite() => format!("{n}"),
            BenchValue::Num(_) => "null".to_owned(),
            BenchValue::Str(s) => json_string(s),
            BenchValue::Bool(b) => format!("{b}"),
        };
        body.push_str(&format!(",\n  {}: {rendered}", json_string(key)));
    }
    body.push_str("\n}\n");
    std::fs::write(&path, body).map_err(|source| BenchJsonError { path: path.clone(), source })?;
    println!("bench json: {}", path.display());
    Ok(path)
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that repoint `RR_BENCH_JSON_DIR` — the env
    /// var is process-global state.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn bench_json_is_well_formed_and_lands_where_pointed() {
        let _guard = ENV_LOCK.lock().unwrap();
        let dir = std::env::temp_dir().join("rr-bench-json-test");
        let _ = std::fs::create_dir_all(&dir);
        std::env::set_var("RR_BENCH_JSON_DIR", &dir);
        let path = write_bench_json(
            "unit\"test",
            &[
                ("speedup", BenchValue::Num(2.5)),
                ("gate", BenchValue::Num(2.0)),
                ("passed", BenchValue::Bool(true)),
                ("unit", BenchValue::from("x")),
                ("nan", BenchValue::Num(f64::NAN)),
            ],
        )
        .expect("record writes");
        std::env::remove_var("RR_BENCH_JSON_DIR");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"name\": \"unit\\\"test\""), "{body}");
        assert!(body.contains("\"speedup\": 2.5"), "{body}");
        assert!(body.contains("\"passed\": true"), "{body}");
        assert!(body.contains("\"nan\": null"), "{body}");
        assert!(body.starts_with('{') && body.trim_end().ends_with('}'), "{body}");
        // Balanced quotes: an even count means every string closed.
        let unescaped_quotes = body.replace("\\\"", "").matches('"').count();
        assert_eq!(unescaped_quotes % 2, 0, "{body}");
        // Keys after the leading "name" are emitted sorted, independent
        // of call-site order, so records diff cleanly across commits.
        let keys: Vec<&str> =
            body.lines().skip(1).filter_map(|l| l.trim().split('"').nth(1)).collect();
        assert_eq!(keys, ["name", "gate", "nan", "passed", "speedup", "unit"], "{body}");
    }

    #[test]
    fn bench_json_unwritable_dir_is_a_typed_error_not_a_panic() {
        let _guard = ENV_LOCK.lock().unwrap();
        let file = std::env::temp_dir().join("rr-bench-json-not-a-dir");
        std::fs::write(&file, b"occupied").unwrap();
        // Pointing the results "directory" at a plain file makes
        // create_dir_all fail deterministically.
        std::env::set_var("RR_BENCH_JSON_DIR", &file);
        let err = write_bench_json("unit", &[]).expect_err("dir creation must fail");
        std::env::remove_var("RR_BENCH_JSON_DIR");
        assert_eq!(err.path, file);
        let message = err.to_string();
        assert!(message.contains("cannot write bench record"), "{message}");
        assert!(std::error::Error::source(&err).is_some());
    }
}
