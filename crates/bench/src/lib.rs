//! Shared helpers for the figure-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one of the paper's figures or
//! tables; this library holds the small amount of common formatting and
//! configuration code they share.
//!
//! | binary | paper artifact |
//! |--------|----------------|
//! | `fig01_emulation_error` | Fig. 1 / Eqs. 1–2: emulation fidelity with and without the α optimizer |
//! | `fig02_jamming_effect` | Fig. 2(b): PER & throughput vs jamming distance per jammer kind |
//! | `fig06_07_08_sweeps` | Figs. 6–8: ST/AH/AP/SH/SP across the L_J, sweep-cycle, L_H, and L_p sweeps, both jammer modes |
//! | `fig09_time_consumption` | Fig. 9: per-function timing and FH-negotiation scaling |
//! | `fig10_goodput_utilization` | Fig. 10: goodput and slot utilization vs Tx slot duration |
//! | `fig11_scheme_comparison` | Fig. 11: PSV/Rand/RL/no-jammer goodput and the Jx-slot sensitivity |
//! | `mdp_threshold_analysis` | Theorems III.4–III.5: threshold structure and its parameter trends |
//! | `league` | adversary-zoo self-play league and defender × adversary cross-table |
//! | `campaign` | runs a directory of `scenarios/*.json` files and emits a deterministic HTML report |
//!
//! The figure binaries marked in `scenarios/` (`fig02`, `fig06-08`,
//! `fig10`) are thin wrappers over `ctjam-scenario`: they load their
//! checked-in scenario file and print the same tables as always, so the
//! numbers stay bit-identical to the pre-DSL binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;

/// Prints a Markdown-style table header and separator.
pub fn table_header(columns: &[&str]) {
    let row = columns.join(" | ");
    println!("| {row} |");
    let sep: Vec<String> = columns.iter().map(|c| "-".repeat(c.len().max(3))).collect();
    println!("| {} |", sep.join(" | "));
}

/// Prints one table row.
pub fn table_row<T: Display>(cells: &[T]) {
    let row: Vec<String> = cells.iter().map(|c| c.to_string()).collect();
    println!("| {} |", row.join(" | "));
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Reads an integer knob from the environment with a default.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Prints the standard banner for a reproduction binary.
pub fn banner(figure: &str, claim: &str) {
    println!("==========================================================");
    println!("CTJam reproduction — {figure}");
    println!("Paper claim: {claim}");
    println!("==========================================================");
}

/// Writes a CSV file into `$CTJAM_CSV_DIR` (if set), returning whether a
/// file was written. Fields are escaped per RFC 4180 (via
/// [`ctjam_telemetry::export::csv_field`]), the header goes first.
/// Figure binaries call this so their printed tables are also available
/// to plotting scripts.
///
/// # Panics
///
/// Panics if the directory exists but the file cannot be written (a
/// misconfigured output path should fail loudly, not silently drop data).
pub fn maybe_write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> bool {
    let Ok(dir) = std::env::var("CTJAM_CSV_DIR") else {
        return false;
    };
    let escape = |cells: &mut dyn Iterator<Item = &str>| -> String {
        cells
            .map(|c| ctjam_telemetry::export::csv_field(c).into_owned())
            .collect::<Vec<_>>()
            .join(",")
    };
    let dir = std::path::Path::new(&dir);
    std::fs::create_dir_all(dir).expect("create CTJAM_CSV_DIR");
    let mut out = String::new();
    out.push_str(&escape(&mut header.iter().copied()));
    out.push('\n');
    for row in rows {
        out.push_str(&escape(&mut row.iter().map(String::as_str)));
        out.push('\n');
    }
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, out).expect("write csv");
    println!("(wrote {})", path.display());
    true
}

/// Directory figure outputs (CSV, manifests) land in: `$CTJAM_CSV_DIR`
/// if set, otherwise `results/` under the current directory.
pub fn results_dir() -> std::path::PathBuf {
    std::env::var("CTJAM_CSV_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("results"))
}

/// Directory checked-in scenario files are loaded from:
/// `$CTJAM_SCENARIO_DIR` if set, otherwise `scenarios/` under the
/// current directory.
pub fn scenario_dir() -> std::path::PathBuf {
    std::env::var("CTJAM_SCENARIO_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("scenarios"))
}

/// Loads and parses a scenario file from [`scenario_dir`], exiting with
/// a readable message on failure (wrapper figure bins depend on their
/// checked-in scenario the way they used to depend on constants).
pub fn load_scenario(file: &str) -> ctjam_scenario::Scenario {
    let path = scenario_dir().join(file);
    match ctjam_scenario::Scenario::load(&path) {
        Ok(scenario) => scenario,
        Err(err) => {
            eprintln!("cannot load scenario {}: {err}", path.display());
            std::process::exit(2);
        }
    }
}

/// Starts the run manifest of a figure binary: base seed, configuration
/// `Debug` string (hashed for cheap diffing), `git describe`, and the
/// start-of-run timestamp. Call [`finish_manifest`] after the figure's
/// tables are printed so the recorded wall time covers the whole run.
pub fn start_manifest(name: &str, seed: u64, config: &str) -> ctjam_telemetry::RunManifest {
    ctjam_telemetry::RunManifest::new(name, seed, config)
}

/// Writes the manifest into [`results_dir`] as `<name>.manifest.json`,
/// printing the path.
///
/// # Panics
///
/// Panics if the manifest cannot be written — provenance loss should
/// fail loudly, exactly like [`maybe_write_csv`] on a bad path.
pub fn finish_manifest(manifest: &ctjam_telemetry::RunManifest) {
    let path = manifest.write(&results_dir()).expect("write run manifest");
    println!("(manifest {})", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.785), "78.5%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn env_knobs_fall_back() {
        assert_eq!(env_usize("CTJAM_DOES_NOT_EXIST", 5), 5);
    }

    #[test]
    fn results_dir_defaults_to_results() {
        if std::env::var("CTJAM_CSV_DIR").is_err() {
            assert_eq!(results_dir(), std::path::PathBuf::from("results"));
        }
    }

    #[test]
    fn csv_skipped_without_env() {
        // The test runner does not set CTJAM_CSV_DIR; the helper must be
        // a quiet no-op then.
        if std::env::var("CTJAM_CSV_DIR").is_err() {
            assert!(!maybe_write_csv("unit_test", &["a"], &[vec!["1".into()]]));
        }
    }
}
