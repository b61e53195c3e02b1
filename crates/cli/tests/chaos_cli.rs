//! `tseig batch` under injected faults, run as a child process so the
//! fault plan comes from `TSEIG_CHAOS` and the summary line can be read
//! from stderr.
//!
//! Built only with `--features chaos` (see the `[[test]]` entry in
//! `crates/cli/Cargo.toml`).

use std::path::Path;
use std::process::Command;

/// A JSONL line holding an order-`n` Hermitian (`c64`) or real
/// symmetric (`f64`) matrix with a dominant diagonal.
fn request(id: &str, tag: &str, n: usize) -> String {
    let mut v = Vec::new();
    for j in 0..n {
        for i in 0..n {
            v.push(format!(
                "{}",
                (1 + (i + j) % 5) as f64 + if i == j { n as f64 } else { 0.0 }
            ));
            if tag == "c64" {
                v.push(format!("{}", (i as f64 - j as f64) * 0.25));
            }
        }
    }
    format!(
        "{{\"id\": \"{id}\", \"scalar\": \"{tag}\", \"n\": {n}, \"data\": [{}]}}\n",
        v.join(",")
    )
}

/// A complex request wedged inside a checkpoint is watched like a real
/// one: the watchdog cancels it, it alone fails with `cancelled`, and
/// the worker rebuilds its plan and solves the rest of the stream.
#[test]
fn watchdog_cancels_a_stalled_complex_request_alone() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let input = dir.join("chaos_cli_watchdog.jsonl");
    let output = dir.join("chaos_cli_watchdog.out.jsonl");
    // One worker claims the lines in order, so the c64 request reaches
    // the first checkpoint, where the one injected stall fires. The
    // stall lasts a minute unless the watchdog's cancel ends it.
    let jsonl = request("z", "c64", 8) + &request("r1", "f64", 8) + &request("r2", "f64", 6);
    std::fs::write(&input, jsonl).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_tseig"))
        .arg("batch")
        .arg(&input)
        .arg("-o")
        .arg(&output)
        .args(["--nb", "4", "--threads", "1", "--watchdog-ms", "40"])
        .env("TSEIG_CHAOS", "stall=1,stall-ticks=60000")
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{stderr}");
    let text = std::fs::read_to_string(&output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(
        lines[0].contains("\"id\": \"z\"") && lines[0].contains("\"error_kind\": \"cancelled\""),
        "{}",
        lines[0]
    );
    for line in &lines[1..] {
        assert!(line.contains("\"ok\": true"), "{line}");
    }
    assert!(
        stderr.contains("(2 clean, 0 degraded, 1 failed; 0 deadline-exceeded, 1 stuck, 1 rescued;"),
        "{stderr}"
    );
}
