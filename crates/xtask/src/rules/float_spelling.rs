//! Rule `float-spelling`: the program writes every float of its data
//! output one way, through `tseig_matrix::io::push_f64` (17 correctly
//! rounded significant digits, which read back to the same bits).
//!
//! In the library code of `crates/cli` and `crates/matrix`, a `write!`,
//! `writeln!` or `format!` whose format string holds an exponent spec
//! (`{v:.17e}`, `{:e}`, `{:E}`) is an error: it would give one value two
//! spellings and bypass the fast writer. Two kinds of function are
//! exempt: `push_f64` itself, whose exact fallback is `{:.16e}`, and
//! `fmt` (`Debug`/`Display` impls), which write text for people, not
//! data to read back. Any other human-readable line is waived with
//! `// tidy: allow(float-spelling) -- reason`.

use crate::source::{fn_spans, SourceFile};
use crate::Diag;

const MACROS: &[&str] = &["write!(", "writeln!(", "format!("];

/// Functions whose format strings the rule skips.
const EXEMPT_FNS: &[&str] = &["push_f64", "fmt"];

pub fn applies_to(rel_path: &str) -> bool {
    rel_path.starts_with("crates/cli/src/") || rel_path.starts_with("crates/matrix/src/")
}

pub fn check(file: &SourceFile, diags: &mut Vec<Diag>) {
    if !applies_to(&file.rel_path) {
        return;
    }
    for (header, body) in fn_spans(file) {
        if EXEMPT_FNS.contains(&fn_name(&file.lines[header - 1].code)) {
            continue;
        }
        let span = header - 1..header - 1 + body.matches('\n').count();
        for idx in span {
            let code = &file.lines[idx].code;
            for mac in MACROS {
                for (pos, _) in code.match_indices(mac) {
                    let word_start = !code[..pos]
                        .chars()
                        .next_back()
                        .is_some_and(|c| c.is_alphanumeric() || c == '_');
                    let lineno = idx + 1;
                    if word_start
                        && exponent_spec(file, idx, pos + mac.len())
                        && !file.allows(lineno, "float-spelling")
                    {
                        diags.push(Diag {
                            path: file.rel_path.clone(),
                            line: lineno,
                            rule: "float-spelling",
                            msg: format!(
                                "`{mac}..)` with an exponent format spec; write data floats \
                                 with `tseig_matrix::io::push_f64`, or waive a human-readable \
                                 line with `tidy: allow(float-spelling)`"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// The name of the function whose header is `code`.
fn fn_name(code: &str) -> &str {
    let after = code.split("fn ").nth(1).unwrap_or("");
    let end = after
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(after.len());
    &after[..end]
}

/// Does a string literal among the macro arguments that open at char
/// `col` of line `idx` hold a `{...}` placeholder whose spec ends in
/// `e` or `E`? The arguments run to the matching `)`, across lines.
fn exponent_spec(file: &SourceFile, idx: usize, col: usize) -> bool {
    let mut literals = String::new();
    let (mut depth, mut in_str) = (1usize, false);
    for (k, line) in file.lines[idx..].iter().enumerate() {
        let skip = if k == 0 {
            line.code[..col].chars().count()
        } else {
            0
        };
        let code = line.code.chars().skip(skip);
        for (c, t) in code.zip(line.text.chars().skip(skip)) {
            match (in_str, c) {
                (_, '"') => {
                    in_str = !in_str;
                    literals.push('\0');
                }
                (true, _) => literals.push(t),
                (false, '(') => depth += 1,
                (false, ')') => depth -= 1,
                _ => {}
            }
            if depth == 0 {
                return has_exponent_placeholder(&literals);
            }
        }
        literals.push('\n');
    }
    has_exponent_placeholder(&literals)
}

/// Whether format-string text holds a placeholder like `{v:.17e}`
/// (`{{` and `}}` are literal braces).
fn has_exponent_placeholder(text: &str) -> bool {
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '{' && chars.peek() == Some(&'{') {
            chars.next();
        } else if c == '{' {
            let inner: String = chars.by_ref().take_while(|&c| c != '}').collect();
            let spec = inner.split_once(':').map_or("", |(_, spec)| spec);
            if spec.ends_with('e') || spec.ends_with('E') {
                return true;
            }
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
    fn exponent_spec_in_data_writer_fails() {
        let src = "fn out(w: &mut String, v: f64) {\n    let _ = write!(\n        w,\n        \"{{\\\"x\\\": {v:.17e}}}\"\n    );\n    let s = format!(\"{:E}\", v);\n}\n";
        let d = run("crates/cli/src/lib.rs", src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!((d[0].rule, d[0].line), ("float-spelling", 2));
        assert_eq!(d[1].line, 6);
    }

    #[test]
    fn clean_writer_passes() {
        let src = "fn out(w: &mut String, v: f64, e: &str) {\n    push_f64(w, v);\n    let _ = write!(w, \"{{e}} {e} {v:.3}\");\n    let s = format!(\"io error: {e}\");\n}\nfn push_f64(out: &mut String, v: f64) {\n    let _ = write!(out, \"{v:.16e}\");\n}\nimpl std::fmt::Debug for X {\n    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {\n        write!(f, \"{:.6e}\", self.0)\n    }\n}\n#[cfg(test)]\nmod tests {\n    fn t(v: f64) -> String {\n        format!(\"{v:.17e}\")\n    }\n}\n";
        let d = run("crates/matrix/src/io.rs", src);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn waiver_and_scope() {
        let flagged =
            "fn info(w: &mut String, x: f64) {\n    let _ = write!(w, \"norm {x:.6e}\");\n}\n";
        assert!(run("crates/core/src/driver.rs", flagged).is_empty());
        let waived = "fn info(w: &mut String, x: f64) {\n    // tidy: allow(float-spelling) -- a summary for people\n    let _ = write!(w, \"norm {x:.6e}\");\n}\n";
        assert!(run("crates/cli/src/lib.rs", waived).is_empty());
    }
}
