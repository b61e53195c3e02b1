//! Rule `paired-counters`: arithmetic-intensity accounting can't drift.
//!
//! Every kernel charges its flop count via `flops::add(...)`; the
//! roofline/intensity reporting divides those flops by the bytes charged
//! via `flops::add_bytes(...)`. A kernel that adds flops but not bytes
//! silently inflates every intensity number downstream (the bench would
//! still "work" — just lie). So: any non-test `fn` in a kernel source
//! file whose body calls `add(Level::...)` (or `flops::add(...)`) must
//! also call `add_bytes(...)`.

use crate::source::{fn_spans, SourceFile};
use crate::Diag;

/// Does the paired-counter rule apply to this workspace-relative path?
/// Kernel sources are the `tseig-kernels` crate, whose kernels serve
/// every element type; `flops.rs` defines the counters themselves.
pub fn applies_to(rel_path: &str) -> bool {
    rel_path.starts_with("crates/kernels/src/") && !rel_path.ends_with("flops.rs")
}

pub fn check(file: &SourceFile, diags: &mut Vec<Diag>) {
    if !applies_to(&file.rel_path) {
        return;
    }
    for (line, body) in fn_spans(file) {
        let adds_flops = body.contains("add(Level::") || body.contains("flops::add(");
        let adds_bytes = body.contains("add_bytes(");
        if adds_flops && !adds_bytes && !file.allows(line, "paired-counters") {
            diags.push(Diag {
                path: file.rel_path.clone(),
                line,
                rule: "paired-counters",
                msg: "kernel charges flops (`flops::add`) without charging memory traffic \
                      (`flops::add_bytes`); intensity reporting would drift"
                    .to_string(),
            });
        }
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

    #[test]
    fn unpaired_add_fails() {
        let src =
            "pub fn dot(x: &[f64]) -> f64 {\n    add(Level::L1, 2 * x.len() as u64);\n    0.0\n}\n";
        let d = run("crates/kernels/src/blas1.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "paired-counters");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn paired_add_passes() {
        let src = "pub fn dot(x: &[f64]) -> f64 {\n    add(Level::L1, 2 * x.len() as u64);\n    add_bytes(Level::L1, 16 * x.len() as u64);\n    0.0\n}\n";
        assert!(run("crates/kernels/src/blas1.rs", src).is_empty());
    }

    #[test]
    fn per_function_granularity() {
        // One paired fn does not excuse an unpaired sibling.
        let src = "fn a() { add(Level::L3, 1); add_bytes(Level::L3, 8); }\nfn b() { add(Level::L3, 1); }\n";
        let d = run("crates/kernels/src/blas3.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn out_of_scope_files_and_tests_are_skipped() {
        let src = "fn a() { add(Level::L3, 1); }\n";
        assert!(run("crates/tridiag/src/sturm.rs", src).is_empty());
        assert!(run("crates/kernels/src/flops.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    fn a() { add(Level::L3, 1); }\n}\n";
        assert!(run("crates/kernels/src/blas1.rs", test_src).is_empty());
    }

    #[test]
    fn ckernels_are_in_scope() {
        // The complex kernels are the generic ones in the kernels crate.
        let src = "fn larfg<T>() { add(Level::L1, T::MULADD_FLOPS); }\n";
        assert_eq!(run("crates/kernels/src/householder.rs", src).len(), 1);
        assert!(run("crates/hermitian/src/stage2.rs", src).is_empty());
    }
}
