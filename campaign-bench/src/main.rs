//! `campaign-bench`: the end-to-end and per-layer benchmark of MeRLiN
//! fault-injection campaigns.  See `README.md` for the workloads, metrics
//! and how to run and compare.
//!
//! ```text
//! campaign-bench [run] [--workload] <name> [--seed N] [--seconds S] [--trace 0|1]
//!                [--spans PATH] [--programs a,b,..] [--faults N]
//! campaign-bench compare <A.jsonl> <B.jsonl>
//! ```

#![forbid(unsafe_code)]

mod compare;
mod json;
mod layers;
mod run;
mod spec;
mod speed;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("persist") => run::persist_main(&args[1..]),
        Some("setup") => run::setup_main(&args[1..]),
        Some("run") => run::main(&args[1..]),
        _ => run::main(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("campaign-bench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    /// The `[profile.*]` tables of a manifest, without comments and blank
    /// lines.
    fn profiles(manifest: &str) -> Vec<&str> {
        let mut inside = false;
        let mut out = Vec::new();
        for line in manifest.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.starts_with('[') {
                inside = line.starts_with("[profile.");
            }
            if inside && !line.is_empty() {
                out.push(line);
            }
        }
        out
    }

    #[test]
    fn builds_with_the_repositorys_profiles() {
        let own = profiles(include_str!("../Cargo.toml"));
        assert!(own.contains(&"[profile.release]"));
        assert_eq!(own, profiles(include_str!("../../Cargo.toml")));
    }
}
