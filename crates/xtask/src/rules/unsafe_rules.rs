//! Unsafe hygiene: the rules that keep the workspace's `unsafe`
//! surface small, commented, and documented.
//!
//! The repo's concurrency argument (disjoint `jc`/`ic` panels in the
//! packed GEMM, region-serialized `DataCell` access in the task runtime)
//! and its ISA-gated intrinsics live in exactly three files. Everything
//! else must stay safe Rust: a new `unsafe` block anywhere else is a
//! build failure until this allowlist is deliberately extended in
//! review.

use crate::source::SourceFile;
use crate::Diag;

/// Files allowed to contain `unsafe` code. Keep this list short and the
/// reasons current:
///
/// * `runtime/src/data.rs` — the `DataCell` interior-mutability core; the
///   runtime's region serialization is the safety argument.
/// * `runtime/src/chase.rs` — the one bulge-chase executor: every
///   frontend's `(s, k)` task reaches the shared band and reflector store
///   through `DataCell` under the scheduler's region guarantee, written
///   once for all three chases.
/// * `kernels/src/blas3/simd.rs` — the private `Lanes` vector trait,
///   whose implementations are the workspace's only `std::arch`
///   intrinsics (rule `intrinsics-in-lanes`), and the one generic body
///   per SIMD kernel written over it (GEMM tile, diamond kernel,
///   rotation chain, FMA probe), instantiated per ISA as
///   `#[target_feature]` functions; runtime `is_x86_feature_detected!`
///   dispatch plus the safe entry wrappers' bounds assertions are the
///   safety argument.
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/runtime/src/data.rs",
    "crates/runtime/src/chase.rs",
    "crates/kernels/src/blas3/simd.rs",
];

/// How many lines above an `unsafe` block/impl a `// SAFETY:` comment may
/// sit (attributes and the comment block itself count).
const SAFETY_LOOKBACK: usize = 5;

/// How many lines below a `#[target_feature]` attribute the function
/// header must appear (other attributes may sit between).
const TARGET_FEATURE_LOOKAHEAD: usize = 4;

/// Rule `unsafe-allowlist` + `safety-comment` + `safety-doc` +
/// `target-feature-unsafe`.
pub fn check(file: &SourceFile, diags: &mut Vec<Diag>) {
    check_target_feature(file, diags);
    let allowlisted = UNSAFE_ALLOWLIST.contains(&file.rel_path.as_str());
    for (idx, line) in file.lines.iter().enumerate() {
        let lineno = idx + 1;
        if !has_unsafe_token(&line.code) {
            continue;
        }
        if !allowlisted {
            if file.allows(lineno, "unsafe-allowlist") {
                continue;
            }
            diags.push(Diag {
                path: file.rel_path.clone(),
                line: lineno,
                rule: "unsafe-allowlist",
                msg: format!(
                    "`unsafe` outside the allowlist ({:?}); move the unsafety into an \
                     allowlisted core or extend the allowlist in xtask with a review",
                    UNSAFE_ALLOWLIST
                ),
            });
            continue;
        }
        if line.code.contains("unsafe fn") {
            if !has_safety_doc(file, idx) && !file.allows(lineno, "safety-doc") {
                diags.push(Diag {
                    path: file.rel_path.clone(),
                    line: lineno,
                    rule: "safety-doc",
                    msg: "`unsafe fn` without a `# Safety` rustdoc section".to_string(),
                });
            }
        } else if !has_safety_comment(file, idx) && !file.allows(lineno, "safety-comment") {
            diags.push(Diag {
                path: file.rel_path.clone(),
                line: lineno,
                rule: "safety-comment",
                msg: "`unsafe` block/impl without a `// SAFETY:` comment directly above"
                    .to_string(),
            });
        }
    }
}

/// Rule `target-feature-unsafe`: per-function SAFETY requirements for
/// ISA-gated intrinsics. Every `#[target_feature(...)]` function must be
/// declared `unsafe fn` — calling it is only sound once runtime
/// detection has proven the ISA present, and a safe signature would let
/// any caller skip that proof — and must carry a `# Safety` rustdoc
/// section stating the CPU-feature precondition.
fn check_target_feature(file: &SourceFile, diags: &mut Vec<Diag>) {
    for (idx, line) in file.lines.iter().enumerate() {
        if !line.code.contains("#[target_feature") {
            continue;
        }
        let lineno = idx + 1;
        if file.allows(lineno, "target-feature-unsafe") {
            continue;
        }
        // The function header: first `fn` within the next few lines
        // (other attributes may sit in between).
        let hi = (idx + TARGET_FEATURE_LOOKAHEAD).min(file.lines.len() - 1);
        let header = (idx + 1..=hi).find(|&j| {
            let code = file.lines[j].code.trim_start();
            code.contains("fn ") && !code.starts_with("#[")
        });
        let Some(hj) = header else {
            diags.push(Diag {
                path: file.rel_path.clone(),
                line: lineno,
                rule: "target-feature-unsafe",
                msg: "`#[target_feature]` not followed by a function header".to_string(),
            });
            continue;
        };
        if !file.lines[hj].code.contains("unsafe fn") {
            diags.push(Diag {
                path: file.rel_path.clone(),
                line: hj + 1,
                rule: "target-feature-unsafe",
                msg: "`#[target_feature]` function must be `unsafe fn`: callers must prove \
                      the ISA is present via runtime detection before calling"
                    .to_string(),
            });
        }
        if !has_safety_doc(file, idx) {
            diags.push(Diag {
                path: file.rel_path.clone(),
                line: lineno,
                rule: "target-feature-unsafe",
                msg: "`#[target_feature]` function needs a `# Safety` rustdoc section \
                      stating the required CPU features"
                    .to_string(),
            });
        }
    }
}

/// The file whose intrinsics rule `intrinsics-in-lanes` confines.
const LANES_FILE: &str = "crates/kernels/src/blas3/simd.rs";

/// Rule `intrinsics-in-lanes`: in the SIMD kernel file, a `_mm256_*` or
/// `_mm512_*` intrinsic may appear only inside a `simd_lanes!(...)`
/// invocation (the `Lanes` implementations) or a `mask_epi*` helper.
/// Every kernel is one generic body over `Lanes`, so an intrinsic
/// anywhere else is a hand-spelled copy of a body for one ISA.
pub fn check_intrinsics(file: &SourceFile, diags: &mut Vec<Diag>) {
    if file.rel_path != LANES_FILE {
        return;
    }
    // Open delimiters of the allowed item being scanned (0: outside).
    let mut depth = 0i64;
    for (idx, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        if depth > 0 || code.contains("simd_lanes!(") || code.contains("fn mask_epi") {
            for ch in code.chars() {
                match ch {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => depth -= 1,
                    _ => {}
                }
            }
            depth = depth.max(0);
            continue;
        }
        let lineno = idx + 1;
        if has_intrinsic_token(code) && !file.allows(lineno, "intrinsics-in-lanes") {
            diags.push(Diag {
                path: file.rel_path.clone(),
                line: lineno,
                rule: "intrinsics-in-lanes",
                msg: "`_mm256_*`/`_mm512_*` intrinsic outside `simd_lanes!` and the \
                      `mask_epi*` helpers; write the kernel over `Lanes` (add the \
                      operation to the trait if it is missing)"
                    .to_string(),
            });
        }
    }
}

/// A `_mm256_` or `_mm512_` identifier in the code channel.
fn has_intrinsic_token(code: &str) -> bool {
    ["_mm256_", "_mm512_"].iter().any(|prefix| {
        code.match_indices(prefix).any(|(pos, _)| {
            !code[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
        })
    })
}

/// Token-level `unsafe` occurrence (word-bounded, code channel only).
fn has_unsafe_token(code: &str) -> bool {
    for (pos, _) in code.match_indices("unsafe") {
        let before_ok = pos == 0
            || !code[..pos]
                .chars()
                .next_back()
                .map(|c| c.is_alphanumeric() || c == '_')
                .unwrap_or(false);
        let after_ok = !code[pos + 6..]
            .chars()
            .next()
            .map(|c| c.is_alphanumeric() || c == '_')
            .unwrap_or(false);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// A `SAFETY:` comment on the same line or within the preceding few lines.
fn has_safety_comment(file: &SourceFile, idx: usize) -> bool {
    let lo = idx.saturating_sub(SAFETY_LOOKBACK);
    file.lines[lo..=idx]
        .iter()
        .any(|l| l.comment.contains("SAFETY:") || l.comment.contains("Safety:"))
}

/// Walk the contiguous doc/attribute block above an `unsafe fn` looking
/// for a `# Safety` section.
fn has_safety_doc(file: &SourceFile, idx: usize) -> bool {
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let l = &file.lines[i];
        let is_attr = l.code.trim().starts_with("#[");
        let is_doc = l.comment.trim_start().starts_with("///");
        if is_doc {
            if l.comment.contains("# Safety") {
                return true;
            }
        } else if !is_attr {
            // Stop at the first non-doc, non-attribute line.
            break;
        }
    }
    false
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
    fn unsafe_outside_allowlist_fails() {
        let d = run(
            "crates/kernels/src/blas3.rs",
            "fn f(p: *mut f64) { unsafe { *p = 0.0; } }\n",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unsafe-allowlist");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn commented_unsafe_in_allowlisted_file_passes() {
        let d = run(
            "crates/runtime/src/data.rs",
            "// SAFETY: region declarations serialize access.\nunsafe { cell.get_mut() };\n",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn uncommented_unsafe_block_fails_even_when_allowlisted() {
        let d = run("crates/runtime/src/data.rs", "unsafe { cell.get_mut() };\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "safety-comment");
    }

    #[test]
    fn unsafe_impl_needs_safety_comment() {
        let src = "unsafe impl<T: Send> Sync for DataCell<T> {}\n";
        let d = run("crates/runtime/src/data.rs", src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "safety-comment");
        let ok = "// SAFETY: exclusivity enforced by the runtime.\nunsafe impl<T: Send> Sync for DataCell<T> {}\n";
        assert!(run("crates/runtime/src/data.rs", ok).is_empty());
    }

    #[test]
    fn unsafe_fn_needs_safety_doc_section() {
        let bad = "/// Shared access.\npub unsafe fn get(&self) -> &T { &*self.0.get() }\n";
        let d = run("crates/runtime/src/data.rs", bad);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "safety-doc");
        let good = "/// Shared access.\n///\n/// # Safety\n/// Caller holds a Read region.\n#[allow(clippy::mut_from_ref)]\npub unsafe fn get(&self) -> &T { &*self.0.get() }\n";
        assert!(run("crates/runtime/src/data.rs", good).is_empty());
    }

    #[test]
    fn the_word_unsafe_in_comments_and_strings_is_ignored() {
        let d = run(
            "crates/kernels/src/blas3.rs",
            "// unsafe is discussed here\nlet s = \"unsafe\";\n",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn target_feature_fn_must_be_unsafe_with_safety_doc() {
        // Safe signature: rejected even in the allowlisted module.
        let bad = "/// Kernel.\n///\n/// # Safety\n/// Requires AVX2.\n\
                   #[target_feature(enable = \"avx2\")]\nfn k(a: &[f64]) {}\n";
        let d = run("crates/kernels/src/blas3/simd.rs", bad);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "target-feature-unsafe");
        assert_eq!(d[0].line, 6);

        // Missing `# Safety` doc: rejected by this rule, and by the
        // general `safety-doc` rule for the `unsafe fn` itself.
        let bad = "/// Kernel.\n#[target_feature(enable = \"avx2\")]\n\
                   unsafe fn k(a: &[f64]) {}\n";
        let d = run("crates/kernels/src/blas3/simd.rs", bad);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].rule, "target-feature-unsafe");
        assert_eq!(d[1].rule, "safety-doc");

        // Both requirements met (extra attributes in between are fine).
        let good = "/// Kernel.\n///\n/// # Safety\n/// Requires AVX2 and FMA.\n\
                    #[target_feature(enable = \"avx2\")]\n#[allow(dead_code)]\n\
                    unsafe fn k(a: &[f64]) {}\n";
        assert!(run("crates/kernels/src/blas3/simd.rs", good).is_empty());
    }

    #[test]
    fn bad_complex_kernel_fixture_is_fully_diagnosed() {
        // A realistic-but-wrong C64 microkernel in the allowlisted
        // intrinsics file: safe `#[target_feature]` signature, no
        // `# Safety` doc, and a bare `unsafe` dispatch call below it.
        // Every hygiene hole must get its own diagnostic — this is the
        // shape a hand-rolled complex kernel is most likely to take
        // before review.
        let bad = "\
/// 4x4 C64 tile: dual real-FMA accumulator chains per element.\n\
#[target_feature(enable = \"avx512f\")]\n\
fn kernel_c64_avx512(k: usize, a: *const C64, b: *const C64, c: *mut C64, ldc: usize) {\n\
    let re = _mm512_setzero_pd();\n\
}\n\
fn dispatch(k: usize, a: *const C64, b: *const C64, c: *mut C64, ldc: usize) {\n\
    unsafe { kernel_c64_avx512(k, a, b, c, ldc) }\n\
}\n";
        let d = run("crates/kernels/src/blas3/simd.rs", bad);
        assert_eq!(d.len(), 3, "{d:?}");
        // Safe signature on the `#[target_feature]` fn.
        assert_eq!(d[0].rule, "target-feature-unsafe");
        assert_eq!(d[0].line, 3);
        // Missing `# Safety` section on the kernel.
        assert_eq!(d[1].rule, "target-feature-unsafe");
        assert_eq!(d[1].line, 2);
        // The dispatch call's `unsafe` block lacks a SAFETY: comment.
        assert_eq!(d[2].rule, "safety-comment");
        assert_eq!(d[2].line, 7);

        // The repaired kernel — `unsafe fn`, `# Safety` doc stating the
        // ISA precondition, and a SAFETY: comment on the dispatch call
        // citing runtime detection — passes clean.
        let good = "\
/// 4x4 C64 tile: dual real-FMA accumulator chains per element.\n\
///\n\
/// # Safety\n\
/// Caller must have verified AVX-512F via `is_x86_feature_detected!`.\n\
#[target_feature(enable = \"avx512f\")]\n\
unsafe fn kernel_c64_avx512(k: usize, a: *const C64, b: *const C64, c: *mut C64, ldc: usize) {\n\
    let re = _mm512_setzero_pd();\n\
}\n\
fn dispatch(k: usize, a: *const C64, b: *const C64, c: *mut C64, ldc: usize) {\n\
    // SAFETY: selected from the dispatch table only after runtime\n\
    // feature detection proved AVX-512F present.\n\
    unsafe { kernel_c64_avx512(k, a, b, c, ldc) }\n\
}\n";
        assert!(run("crates/kernels/src/blas3/simd.rs", good).is_empty());
    }

    #[test]
    fn target_feature_rule_applies_outside_the_allowlist_too() {
        let bad = "#[target_feature(enable = \"avx2\")]\nfn k() {}\n";
        let d = run("crates/core/src/driver.rs", bad);
        // Both target-feature diags fire (not unsafe, no safety doc);
        // the unsafe-allowlist rule doesn't, since nothing is `unsafe`.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.rule == "target-feature-unsafe"));
    }

    fn run_intrinsics(path: &str, src: &str) -> Vec<Diag> {
        let f = SourceFile::parse(path, src);
        let mut d = Vec::new();
        check_intrinsics(&f, &mut d);
        d
    }

    #[test]
    fn intrinsic_outside_lanes_is_flagged() {
        // A hand-spelled AVX-512 tile beside the `Lanes` implementations:
        // its loads, broadcast and FMA are flagged, the macro invocation
        // and the mask helper above it are not.
        let bad = "\
simd_lanes!(\n\
    __m512d,\n\
    _mm512_set1_pd,\n\
    |p, m| _mm512_maskz_loadu_pd(((1u32 << m) - 1) as __mmask8, p)\n\
);\n\
unsafe fn mask_epi64(m: usize) -> __m256i {\n\
    _mm256_cmpgt_epi64(_mm256_set1_epi64x(m as i64), _mm256_setr_epi64x(0, 1, 2, 3))\n\
}\n\
unsafe fn mk_avx512_24x8(kc: usize, ap: *const f64, bp: *const f64) {\n\
    let a0 = _mm512_loadu_pd(ap);\n\
    let bv = _mm512_set1_pd(*bp); // the broadcast\n\
    acc = _mm512_fmadd_pd(a0, bv, acc);\n\
}\n";
        let d = run_intrinsics("crates/kernels/src/blas3/simd.rs", bad);
        let lines: Vec<usize> = d.iter().map(|x| x.line).collect();
        assert_eq!(lines, [10, 11, 12], "{d:?}");
        assert!(d.iter().all(|x| x.rule == "intrinsics-in-lanes"));
        // The rule only polices the SIMD kernel file.
        assert!(run_intrinsics("crates/kernels/src/rot.rs", bad).is_empty());
    }

    #[test]
    fn kernel_over_lanes_is_clean() {
        // The same tile written over `Lanes`, an intrinsic named in a
        // comment or a string, and an identifier that merely contains
        // the prefix: nothing to flag.
        let good = "\
simd_lanes!(__m256d, f64, 4, _mm256_set1_pd, _mm256_loadu_pd);\n\
unsafe fn gemm_body<V: Lanes>(kc: usize, ap: *const V::F) -> V {\n\
    // was: _mm512_fmadd_pd(a0, bv, acc)\n\
    let name = \"_mm512_fmadd_pd\";\n\
    let my_mm512_count = 3;\n\
    V::load(ap).fmadd(V::splat(1.0), V::splat(0.0))\n\
}\n";
        assert!(run_intrinsics("crates/kernels/src/blas3/simd.rs", good).is_empty());
    }

    #[test]
    fn explicit_allow_escape_works() {
        let d = run(
            "crates/kernels/src/blas3.rs",
            "unsafe { hot() } // tidy: allow(unsafe-allowlist) -- vetted intrinsic\n",
        );
        assert!(d.is_empty());
    }
}
