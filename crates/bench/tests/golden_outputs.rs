//! Golden-output regression gate for the seeded `results/` artifacts.
//!
//! Runs the `lifetime`, `fig3a`, `fig3b`, `zombie`, `recovery
//! --msize-sweep` and `proactive` harness binaries with their seed
//! defaults in a scratch directory and asserts every CSV
//! they produce is byte-identical to the copy checked into `results/`,
//! at `SALAMANDER_THREADS=1` and `=4` alike. This is the enforcement
//! arm of the determinism contract: no optimization may shift a
//! published number, and thread count may never leak into output.
//!
//! This lives in `crates/bench` (rather than the top-level `tests/`
//! directory next to `trace_determinism.rs`) because only the crate
//! that defines the binaries gets `CARGO_BIN_EXE_*` paths from cargo.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Repo-root `results/` directory holding the checked-in goldens.
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Run `bin args` with its seed defaults in a fresh scratch dir at a
/// fixed thread count and compare every CSV named in `outputs`
/// byte-for-byte against the checked-in golden of the same name.
fn assert_golden(bin: &str, args: &[&str], threads: &str, outputs: &[&str]) {
    let scratch = std::env::temp_dir().join(format!(
        "salamander-golden-{}-t{}-{}",
        Path::new(bin).file_name().unwrap().to_string_lossy(),
        threads,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let status = Command::new(bin)
        .args(args)
        .current_dir(&scratch)
        .env("SALAMANDER_THREADS", threads)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("spawn harness binary");
    assert!(status.success(), "{bin} exited with {status}");

    for name in outputs {
        let produced = std::fs::read(scratch.join("results").join(name))
            .unwrap_or_else(|e| panic!("{bin} did not produce results/{name}: {e}"));
        let golden = std::fs::read(golden_dir().join(name))
            .unwrap_or_else(|e| panic!("missing checked-in golden results/{name}: {e}"));
        assert_eq!(
            produced, golden,
            "results/{name} from {bin} (SALAMANDER_THREADS={threads}) \
             differs from the checked-in golden"
        );
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// One case per harness run: the binary path from cargo, its arguments
/// (the seeds are the defaults) and the CSVs it writes. `recovery` and
/// `proactive` pin diFS placement end to end.
type Case = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
);

fn cases() -> Vec<Case> {
    vec![
        (
            env!("CARGO_BIN_EXE_lifetime"),
            &[],
            &[
                "lifetime.csv",
                "lifetime_granularity.csv",
                "lifetime_cap.csv",
            ],
        ),
        (env!("CARGO_BIN_EXE_fig3a"), &[], &["fig3a.csv"]),
        (env!("CARGO_BIN_EXE_fig3b"), &[], &["fig3b.csv"]),
        (
            env!("CARGO_BIN_EXE_zombie"),
            &[],
            &["zombie_lifetime.csv", "zombie_cells.csv"],
        ),
        (
            env!("CARGO_BIN_EXE_recovery"),
            &["--msize-sweep"],
            &["recovery.csv", "recovery_msize.csv"],
        ),
        (env!("CARGO_BIN_EXE_proactive"), &[], &["proactive.csv"]),
    ]
}

#[test]
fn seeded_csvs_match_checked_in_goldens_serial() {
    for (bin, args, outputs) in cases() {
        assert_golden(bin, args, "1", outputs);
    }
}

#[test]
fn seeded_csvs_match_checked_in_goldens_four_threads() {
    for (bin, args, outputs) in cases() {
        assert_golden(bin, args, "4", outputs);
    }
}
