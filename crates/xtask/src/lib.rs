//! `xtask` — repo-specific static analysis for the tseig workspace.
//!
//! Run as `cargo run -p xtask -- tidy`. Modeled on rustc's `tidy`: pure
//! std, token-level rules over a lexically scanned source model
//! ([`source`]), no dependency on the code it checks. The rules encode
//! invariants the test suite cannot express:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `unsafe-allowlist`  | `unsafe` only in the allowlisted files |
//! | `safety-comment`    | every `unsafe` block/impl has `// SAFETY:` |
//! | `safety-doc`        | every `unsafe fn` has a `# Safety` rustdoc section |
//! | `paired-counters`   | kernels charging flops also charge bytes |
//! | `no-panics`         | no `unwrap()`/`expect(`/`panic!` in library code |
//! | `lossy-cast`        | no `as u32`/`as i32`/`as f32` in library code |
//! | `plan-no-alloc`     | `*_ws`/`*_into`/`*_planned` fns reuse workspaces, never mint buffers |
//! | `pure-req`          | `*_req` sizing fns are pure arithmetic (no alloc/I-O/env/clock) |
//! | `task-storage`      | task-body and touch-reporting files reach storage only through shadow-reported accessors |
//! | `shim-deps`         | `shims/*` stay std-only |
//!
//! A rule can be waived on one line with a
//! `// tidy: allow(<rule>) -- reason` comment — trailing on the line, or
//! standalone on the line directly above (rustfmt moves trailing
//! comments off long lines). The reason is mandatory reviewer-facing
//! prose, not parsed.

#[cfg(feature = "graphcheck")]
pub mod graphcheck;
pub mod rules;
pub mod runner;
pub mod source;

/// One tidy finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line (0 for file-level findings).
    pub line: usize,
    /// Stable rule name (also the `tidy: allow(...)` key).
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.msg
        )
    }
}

impl Diag {
    /// GitHub Actions workflow-command form: printed to stdout in CI, it
    /// becomes an inline annotation on the PR diff
    /// (`::error file=...,line=...,title=...::message`).
    pub fn github(&self) -> String {
        format!(
            "::error file={},line={},title=tidy({})::{}",
            self.path,
            self.line.max(1),
            self.rule,
            github_escape_message(&self.msg),
        )
    }
}

/// Escape a workflow-command *message*: `%`, CR and LF are the only
/// characters GitHub requires encoded there.
pub fn github_escape_message(msg: &str) -> String {
    msg.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn github_annotation_format() {
        let d = Diag {
            path: "crates/core/src/stage2.rs".to_string(),
            line: 7,
            rule: "task-storage",
            msg: "bad\nthing with 100%".to_string(),
        };
        assert_eq!(
            d.github(),
            "::error file=crates/core/src/stage2.rs,line=7,title=tidy(task-storage)::bad%0Athing with 100%25"
        );
        // File-level findings (line 0) clamp to line 1 — the annotation
        // API rejects line 0.
        let d = Diag { line: 0, ..d };
        assert!(d.github().contains("line=1,"));
    }
}
