//! Lexical source model shared by every tidy rule.
//!
//! Rules must never fire on text inside comments or string literals, and
//! most of them must skip `#[cfg(test)]` code. Rather than having each
//! rule re-derive that context, this module splits a source file once
//! into three per-line channels:
//!
//! * `code` — the line with comments and string-literal *contents*
//!   blanked out (delimiters kept, so `.expect("msg")` still shows
//!   `.expect("")` in the code channel);
//! * `comment` — the text of any comment on the line (line, doc, or
//!   block), blanked elsewhere;
//! * `in_test` — whether the line sits inside a `#[cfg(test)]` item.
//!
//! The line as written is kept too (`text`), aligned char for char with
//! `code`, for the one rule that reads inside string literals.
//!
//! The scanner is a small hand-rolled lexer: line comments, nested block
//! comments, string/char/raw-string literals, and a lifetime-vs-char
//! heuristic. It does not need to be a full Rust parser — tidy rules are
//! token-level — but it must never misclassify a comment as code.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// The source text as written (char for char aligned with `code`).
    pub text: String,
    /// Source text with comments and literal contents blanked.
    pub code: String,
    /// Comment text on this line (empty if none).
    pub comment: String,
    /// Inside a `#[cfg(test)]` item (attribute line included).
    pub in_test: bool,
}

/// A scanned file: workspace-relative path plus per-line channels.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    pub lines: Vec<Line>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

impl SourceFile {
    /// Scan `text` into the per-line channels.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let mut lines = Vec::new();
        let mut state = State::Normal;
        for raw in text.split('\n') {
            let (code, comment, next) = scan_line(raw, state);
            state = next;
            lines.push(Line {
                text: raw.to_string(),
                code,
                comment,
                in_test: false,
            });
        }
        mark_test_regions(&mut lines);
        SourceFile {
            rel_path: rel_path.to_string(),
            lines,
        }
    }

    /// 1-based line numbers whose *code* channel contains `needle`.
    pub fn code_lines_containing(&self, needle: &str) -> Vec<usize> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| l.code.contains(needle))
            .map(|(i, _)| i + 1)
            .collect()
    }

    /// Whether the line (1-based) carries a `tidy: allow(<rule>)` escape:
    /// either trailing on the line itself, or as a standalone comment on
    /// the line directly above (rustfmt moves trailing comments off long
    /// lines, so the waiver must survive in both positions).
    pub fn allows(&self, line: usize, rule: &str) -> bool {
        let tag = format!("tidy: allow({rule})");
        let has = |i: usize| {
            self.lines
                .get(i)
                .map(|l| l.comment.contains(&tag))
                .unwrap_or(false)
        };
        if has(line.wrapping_sub(1)) {
            return true;
        }
        // Only a pure comment line above counts — a waiver trailing some
        // other statement must not leak onto its neighbour.
        line >= 2 && has(line - 2) && self.lines[line - 2].code.trim().is_empty()
    }
}

/// Scan one physical line, producing the code and comment channels and
/// the lexer state carried into the next line.
fn scan_line(raw: &str, mut state: State) -> (String, String, State) {
    let chars: Vec<char> = raw.chars().collect();
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::with_capacity(8);
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            State::LineComment => {
                comment.push(c);
                code.push(' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    comment.push_str("*/");
                    code.push_str("  ");
                    i += 2;
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if c == '/' && next == Some('*') {
                    comment.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                    state = State::BlockComment(depth + 1);
                } else {
                    comment.push(c);
                    code.push(' ');
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    comment.push(' ');
                    i += 1;
                    state = State::Normal;
                } else {
                    code.push(' ');
                    comment.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut h = 0u32;
                    while chars.get(i + 1 + h as usize) == Some(&'#') && h < hashes {
                        h += 1;
                    }
                    if h == hashes {
                        code.push('"');
                        for _ in 0..h {
                            code.push('#');
                        }
                        comment.push(' ');
                        for _ in 0..h {
                            comment.push(' ');
                        }
                        i += 1 + h as usize;
                        state = State::Normal;
                        continue;
                    }
                }
                code.push(' ');
                comment.push(' ');
                i += 1;
            }
            State::Char => {
                if c == '\\' {
                    code.push_str("  ");
                    comment.push_str("  ");
                    i += 2;
                } else if c == '\'' {
                    code.push('\'');
                    comment.push(' ');
                    i += 1;
                    state = State::Normal;
                } else {
                    code.push(' ');
                    comment.push(' ');
                    i += 1;
                }
            }
            State::Normal => {
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    comment.push_str("//");
                    code.push_str("  ");
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    comment.push_str("/*");
                    code.push_str("  ");
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    code.push('"');
                    comment.push(' ');
                    i += 1;
                } else if c == 'r' && (next == Some('"') || next == Some('#')) {
                    // Raw string r"..." or r#"..."#.
                    let mut h = 0u32;
                    while chars.get(i + 1 + h as usize) == Some(&'#') {
                        h += 1;
                    }
                    if chars.get(i + 1 + h as usize) == Some(&'"') {
                        code.push('r');
                        for _ in 0..h {
                            code.push('#');
                        }
                        code.push('"');
                        comment.push(' ');
                        for _ in 0..=h {
                            comment.push(' ');
                        }
                        i += 2 + h as usize;
                        state = State::RawStr(h);
                    } else {
                        code.push(c);
                        comment.push(' ');
                        i += 1;
                    }
                } else if c == '\'' {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let is_char = match next {
                        Some('\\') => true,
                        Some(n) => chars.get(i + 2) == Some(&'\'') && n != '\'',
                        None => false,
                    };
                    if is_char {
                        code.push('\'');
                        comment.push(' ');
                        i += 1;
                        state = State::Char;
                    } else {
                        code.push('\'');
                        comment.push(' ');
                        i += 1;
                    }
                } else {
                    code.push(c);
                    comment.push(' ');
                    i += 1;
                }
            }
        }
    }
    if state == State::LineComment {
        state = State::Normal;
    }
    (code, comment, state)
}

/// Mark every line inside a `#[cfg(test)]` item (the attribute, the item
/// header, and the braced body) as test code.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    // Depth at which the innermost active cfg(test) item opened.
    let mut test_open_depth: Option<i64> = None;
    // Saw #[cfg(test)], waiting for the item's opening brace.
    let mut pending = false;
    for line in lines.iter_mut() {
        if test_open_depth.is_none() && is_cfg_test_attr(&line.code) {
            pending = true;
        }
        line.in_test = test_open_depth.is_some() || pending;
        for c in line.code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending {
                        test_open_depth = Some(depth);
                        pending = false;
                    }
                }
                '}' => {
                    if test_open_depth == Some(depth) {
                        test_open_depth = None;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
    }
}

/// Does this code line carry a `#[cfg(test)]`-family attribute?
fn is_cfg_test_attr(code: &str) -> bool {
    code.contains("cfg(test)") || code.contains("cfg(all(test")
}

/// Extract every `fn` item body (header line through matching close
/// brace) from non-test code, as `(first_line_1based, concatenated_code)`.
/// Nested fns are reported inside their parent's span only.
pub fn fn_spans(file: &SourceFile) -> Vec<(usize, String)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < file.lines.len() {
        let line = &file.lines[i];
        if !line.in_test && is_fn_header(&line.code) {
            // Walk forward to the opening brace, then to its match.
            let start = i;
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut body = String::new();
            let mut j = i;
            while j < file.lines.len() {
                let code = &file.lines[j].code;
                body.push_str(code);
                body.push('\n');
                for c in code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        // A bodyless declaration (trait method / extern).
                        ';' if !opened => depth = -1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                if depth < 0 {
                    break;
                }
                j += 1;
            }
            spans.push((start + 1, body));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    spans
}

/// Is this code line a `fn` item header (not a `Fn` trait bound)?
fn is_fn_header(code: &str) -> bool {
    for (pos, _) in code.match_indices("fn ") {
        let before = code[..pos].chars().next_back();
        let boundary = matches!(before, None | Some(' ') | Some('(') | Some('\t'));
        if !boundary {
            continue;
        }
        // Require an identifier after `fn `.
        if code[pos + 3..]
            .chars()
            .next()
            .map(|c| c.is_alphanumeric() || c == '_')
            .unwrap_or(false)
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = SourceFile::parse(
            "x.rs",
            "let a = \"panic!(no)\"; // unwrap() here\nlet b = 1; /* expect( */ let c;\n",
        );
        assert!(!f.lines[0].code.contains("panic!"));
        assert!(f.lines[0].comment.contains("unwrap()"));
        assert!(!f.lines[1].code.contains("expect("));
        assert!(f.lines[1].code.contains("let c;"));
    }

    #[test]
    fn nested_block_comments() {
        let f = SourceFile::parse("x.rs", "/* a /* b */ unwrap() */ code();\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("code();"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = SourceFile::parse("x.rs", "fn f<'a>(x: &'a str) { let c = 'x'; x.foo() }\n");
        assert!(f.lines[0].code.contains("x.foo()"));
        // Char content blanked.
        assert!(!f.lines[0].code.contains("'x'"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let f = SourceFile::parse("x.rs", "let s = r#\"unwrap() \"# ; tail();\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("tail();"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test, "region must end at the closing brace");
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = SourceFile::parse("x.rs", "#[cfg(not(test))]\nfn f() {}\n");
        assert!(!f.lines[1].in_test);
    }

    #[test]
    fn fn_spans_cover_bodies() {
        let src = "pub fn a(x: u32) -> u32 {\n    x + 1\n}\n\nfn b() {\n    inner();\n}\n";
        let f = SourceFile::parse("x.rs", src);
        let spans = fn_spans(&f);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].0, 1);
        assert!(spans[0].1.contains("x + 1"));
        assert_eq!(spans[1].0, 5);
        assert!(spans[1].1.contains("inner();"));
    }

    #[test]
    fn tidy_allow_escape_is_read_from_comments() {
        let f = SourceFile::parse("x.rs", "let x = y as u32; // tidy: allow(lossy-cast)\n");
        assert!(f.allows(1, "lossy-cast"));
        assert!(!f.allows(1, "no-panics"));
    }

    #[test]
    fn standalone_waiver_above_covers_the_next_line() {
        let src = "// tidy: allow(lossy-cast) -- reviewed\nlet x = y as u32;\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allows(2, "lossy-cast"));
        // A waiver trailing some other statement must not leak down.
        let src = "let a = b as u32; // tidy: allow(lossy-cast) -- here only\nlet x = y as u32;\n";
        let f = SourceFile::parse("x.rs", src);
        assert!(f.allows(1, "lossy-cast"));
        assert!(!f.allows(2, "lossy-cast"));
    }
}
