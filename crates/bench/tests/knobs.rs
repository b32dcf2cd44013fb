//! Budget knobs: a malformed value stops a figure binary before it does
//! any work, instead of running it silently at the default budget.

use std::process::Command;

#[test]
fn malformed_budget_knob_exits_2_before_any_work() {
    let out_dir = std::env::temp_dir().join(format!("ctjam-knobs-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_fig09_time_consumption"))
        .env("CTJAM_TRIALS", "12k")
        .env("CTJAM_CSV_DIR", &out_dir)
        .output()
        .expect("run fig09_time_consumption");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "a malformed CTJAM_TRIALS must exit 2; stderr: {stderr}"
    );
    assert!(
        stderr.contains("CTJAM_TRIALS"),
        "the message must name the variable: {stderr}"
    );
    assert!(
        !stdout.contains("### Fig. 9(a)"),
        "no table may be printed: {stdout}"
    );
}
