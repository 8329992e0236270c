//! A misspelled or unknown option stops the `temspc` binary with exit
//! status 2 and an error naming the option, before any work starts.

use std::process::Command;

#[test]
fn unknown_flags_exit_2_and_name_the_flag() {
    let out = std::env::temp_dir().join(format!("temspc_unknown_flag_{}.tpb", std::process::id()));
    let calibrate = format!(
        "calibrate --runs 1 --hours 0.05 --out {} --hourz 9",
        out.display()
    );
    for (line, typo) in [
        (calibrate.as_str(), "--hourz"),
        ("list --bogus-flag 3", "--bogus-flag"),
        ("ingest serve --model absent.tpb --modle x", "--modle"),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_temspc"))
            .args(line.split_whitespace())
            .output()
            .expect("spawn temspc");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{line}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option {typo}")),
            "{stderr}"
        );
    }
    assert!(!out.exists(), "calibrate ran despite the unknown flag");
}
