//! Rule `task-storage`: task-body code must report its storage touches.
//!
//! The footprint shadow checker (`tseig_runtime::shadow`) can only catch
//! under-declared task footprints if the code that actually reaches
//! matrix storage reports the ranges it touches. This rule guards that
//! instrumentation structurally: in any file that defines a task body
//! (contains `fn run_task`) or reports band touches (calls
//! `touch_band(` — the shared chase kernels the task bodies call), every
//! non-test function that reaches storage — slab slices, element
//! accessors, or tuple-indexed matrix entries — must also contain a
//! shadow report (`shadow::touch` or a `touch_band(` call).
//!
//! Main-thread code that legitimately runs outside any task (whole-band
//! contracts, post-processing) carries a
//! `// tidy: allow(task-storage) -- reason` waiver on the `fn` header.

use crate::source::{fn_spans, SourceFile};
use crate::Diag;

/// Tokens that reach matrix storage.
const STORAGE_TOKENS: &[&str] = &[".as_slice(", ".as_mut_slice(", ".get(", ".set("];

/// Tokens that report a touch to the shadow checker.
const REPORT_TOKENS: &[&str] = &["shadow::touch", "touch_band("];

/// Does this file define task bodies, or report band touches for them?
/// The rule only applies there — generic storage code elsewhere has no
/// footprint to honour.
fn runs_in_tasks(file: &SourceFile) -> bool {
    file.lines
        .iter()
        .any(|l| !l.in_test && (l.code.contains("fn run_task") || l.code.contains("touch_band(")))
}

/// Does `body` index storage with a `[(row, col)]`-style tuple? Plain
/// `[(` also appears in slice literals (`&[(a, b)]`) and `vec![(..)]`;
/// an *indexing* use is preceded by an identifier character or a closing
/// bracket.
fn has_tuple_indexing(body: &str) -> bool {
    for (pos, _) in body.match_indices("[(") {
        let before = body[..pos].chars().next_back();
        if matches!(before, Some(c) if c.is_alphanumeric() || c == '_' || c == ')' || c == ']') {
            return true;
        }
    }
    false
}

pub fn check(file: &SourceFile, diags: &mut Vec<Diag>) {
    if !file.rel_path.starts_with("crates/") || !runs_in_tasks(file) {
        return;
    }
    for (header_line, body) in fn_spans(file) {
        let touches_storage =
            STORAGE_TOKENS.iter().any(|t| body.contains(t)) || has_tuple_indexing(&body);
        if !touches_storage {
            continue;
        }
        let reports = REPORT_TOKENS.iter().any(|t| body.contains(t));
        if reports || file.allows(header_line, "task-storage") {
            continue;
        }
        diags.push(Diag {
            path: file.rel_path.clone(),
            line: header_line,
            rule: "task-storage",
            msg: "function in a task-body file reaches matrix storage without reporting \
                  to the footprint shadow checker (`shadow::touch`/`touch_band`); \
                  instrument it or waive a documented main-thread path"
                .to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Diag> {
        let f = SourceFile::parse(path, src);
        let mut d = Vec::new();
        check(&f, &mut d);
        d
    }

    const TASK_FILE_PRELUDE: &str = "fn run_task() { touch_band(0, 1, Access::Write); }\n";

    #[test]
    fn uninstrumented_storage_access_fails() {
        let src = format!("{TASK_FILE_PRELUDE}fn gather(a: &M) -> f64 {{\n    a.get(0, 1)\n}}\n");
        let d = run("crates/core/src/stage2.rs", &src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "task-storage");
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn tuple_indexing_counts_as_storage() {
        let src = format!("{TASK_FILE_PRELUDE}fn peek(a: &M) -> f64 {{\n    a[(0, 1)]\n}}\n");
        assert_eq!(run("crates/hermitian/src/stage2.rs", &src).len(), 1);
        // ...but slice literals and vec! patterns do not.
        let src = format!(
            "{TASK_FILE_PRELUDE}fn decl() -> Vec<(u32, bool)> {{\n    vec![(1, true)]\n}}\n"
        );
        assert!(run("crates/hermitian/src/stage2.rs", &src).is_empty());
    }

    #[test]
    fn instrumented_fn_passes() {
        let src = format!(
            "{TASK_FILE_PRELUDE}fn gather(a: &M) -> f64 {{\n    touch_band(0, 1, Access::Read);\n    a.get(0, 1)\n}}\n"
        );
        assert!(run("crates/core/src/stage2.rs", &src).is_empty());
        let src = format!(
            "{TASK_FILE_PRELUDE}fn gather(a: &M) -> f64 {{\n    shadow::touch(0, 0, 2, Access::Read);\n    a.as_slice()[0]\n}}\n"
        );
        assert!(run("crates/core/src/stage2.rs", &src).is_empty());
    }

    #[test]
    fn header_waiver_is_honoured() {
        let src = format!(
            "{TASK_FILE_PRELUDE}// tidy: allow(task-storage) -- main-thread post-processing\nfn fold(a: &M) -> f64 {{\n    a[(0, 0)]\n}}\n"
        );
        assert!(run("crates/core/src/stage2.rs", &src).is_empty());
    }

    #[test]
    fn shared_chase_kernels_are_checked() {
        // No task body here: the file is in scope because its kernels
        // report band touches, so an unreported storage access fails.
        let src = "fn window(b: &B, touch_band: &impl Fn(usize, usize, bool)) {\n    touch_band(0, 1, false);\n    b.as_slice();\n}\nfn peek(b: &B) -> f64 {\n    b.get(0, 1)\n}\n";
        let d = run("crates/kernels/src/stage2.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].line, d[0].rule), (5, "task-storage"));
    }

    #[test]
    fn files_without_task_bodies_are_out_of_scope() {
        let src = "fn gather(a: &M) -> f64 {\n    a.get(0, 1)\n}\n";
        assert!(run("crates/matrix/src/dense.rs", src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = format!(
            "{TASK_FILE_PRELUDE}#[cfg(test)]\nmod tests {{\n    fn t(a: &M) {{ a.get(0, 1); }}\n}}\n"
        );
        assert!(run("crates/core/src/stage2.rs", &src).is_empty());
    }
}
