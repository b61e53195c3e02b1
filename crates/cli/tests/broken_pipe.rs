//! `tseig` writing into a pipe whose reader has already gone, as in
//! `tseig svd A.mtx | head -1` once `head` has read its line: every
//! command must exit 0 without a panic, and stderr must hold only the
//! command's own status lines.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Write `text` to a file of this test's scratch directory.
fn scratch_file(name: &str, text: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    path
}

/// Run `tseig args` with stdout on a pipe whose read end is closed
/// before the process starts; the exit status and stderr.
fn run_into_closed_pipe(args: &[&str], file: &Path) -> (std::process::ExitStatus, String) {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let child = Command::new(env!("CARGO_BIN_EXE_tseig"))
        .args(&args[..1])
        .arg(file)
        .args(&args[1..])
        .stdout(writer)
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let out = child.wait_with_output().unwrap();
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_command_exits_cleanly_on_a_closed_stdout() {
    // A 4 x 4 symmetric matrix, column-major.
    let mtx = scratch_file(
        "broken_pipe.mtx",
        "%%MatrixMarket matrix array real general\n4 4\n\
         4\n1\n0\n0\n1\n3\n1\n0\n0\n1\n2\n1\n0\n0\n1\n1\n",
    );
    let jsonl = scratch_file(
        "broken_pipe.jsonl",
        "{\"id\": \"a\", \"n\": 2, \"data\": [2.0, 1.0, 1.0, 2.0]}\n\
         {\"id\": \"b\", \"n\": 1, \"data\": [5.0]}\n",
    );
    // Each command with the stderr lines it prints on success.
    let cases: [(&[&str], &Path, &[&str]); 4] = [
        (&["svd"], &mtx, &["svd of 4x4 in "]),
        (&["eig"], &mtx, &["solved 4x4 in ", "residual "]),
        (&["info"], &mtx, &[]),
        (
            &["batch", "--threads", "1"],
            &jsonl,
            &["batch[eig]: 2 requests in "],
        ),
    ];
    for (args, file, status_lines) in cases {
        let (status, stderr) = run_into_closed_pipe(args, file);
        assert!(
            status.success(),
            "tseig {args:?} failed: {status}\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "tseig {args:?}:\n{stderr}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), status_lines.len(), "tseig {args:?}:\n{stderr}");
        for (line, start) in lines.iter().zip(status_lines) {
            assert!(line.starts_with(start), "tseig {args:?}: {line:?}");
        }
    }
}
