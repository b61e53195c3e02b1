//! Rule `doc-refs`: every `cargo` target a document names must exist.
//!
//! The docs tell a reader how to build and run things: `cargo run -p
//! tseig-cli`, `--bin tseig`, `--example quickstart`. When a crate or a
//! target is deleted, those commands rot silently, because nothing
//! builds the docs. So every `-p <package>`, `--bin <name>` and
//! `--example <name>` in the checked documents must name a package, a
//! binary or an example of a workspace member. The members are read
//! from their own manifests (`[package]`, `[[bin]]`, `[[example]]`,
//! `src/main.rs`, `src/bin/*.rs`, `examples/*.rs`), with no TOML
//! dependency: the manifests here are flat enough to read line by line.
//!
//! A flag counts only as a whitespace-separated word of its own (inside
//! a command line or a code span), so prose that quotes the flag alone,
//! like "the `-p` flag", is not read as a reference.

use crate::Diag;
use std::collections::BTreeSet;

/// The packages, binaries and examples of the workspace.
#[derive(Debug, Default)]
pub struct Targets {
    pub packages: BTreeSet<String>,
    pub bins: BTreeSet<String>,
    pub examples: BTreeSet<String>,
}

impl Targets {
    /// Add one member from its manifest text and the file names of its
    /// implicit targets: `has_main` for `src/main.rs`, `bin_files` for
    /// the stems of `src/bin/*.rs`, `example_files` for `examples/*.rs`.
    pub fn add_member(
        &mut self,
        manifest: &str,
        has_main: bool,
        bin_files: &[String],
        example_files: &[String],
    ) {
        let mut table = String::new();
        let mut package = None;
        for raw in manifest.lines() {
            let line = raw.trim();
            if line.starts_with('[') {
                table = line.to_string();
                continue;
            }
            let Some(name) = name_value(line) else {
                continue;
            };
            match table.as_str() {
                "[package]" => package = Some(name),
                "[[bin]]" => {
                    self.bins.insert(name);
                }
                "[[example]]" => {
                    self.examples.insert(name);
                }
                _ => {}
            }
        }
        if let Some(p) = package {
            if has_main {
                self.bins.insert(p.clone());
            }
            self.packages.insert(p);
        }
        self.bins.extend(bin_files.iter().cloned());
        self.examples.extend(example_files.iter().cloned());
    }
}

/// The value of a `name = "..."` line.
fn name_value(line: &str) -> Option<String> {
    let rest = line.strip_prefix("name")?.trim_start().strip_prefix('=')?;
    let value = rest.trim().strip_prefix('"')?;
    value.find('"').map(|end| value[..end].to_string())
}

/// Check one document (`rel_path` like `docs/TUNING.md`).
pub fn check_doc(rel_path: &str, text: &str, targets: &Targets, diags: &mut Vec<Diag>) {
    for (idx, line) in text.lines().enumerate() {
        let words: Vec<&str> = line.split_whitespace().collect();
        for pair in words.windows(2) {
            let flag = pair[0].trim_start_matches('`');
            let (kind, known) = match flag {
                "-p" | "--package" => ("package", &targets.packages),
                "--bin" => ("binary", &targets.bins),
                "--example" => ("example", &targets.examples),
                _ => continue,
            };
            let word = pair[1].trim_start_matches(['`', '"', '\'', '(']);
            let name = word.trim_end_matches(|c: char| !(c.is_alphanumeric() || c == '_'));
            // Another flag, a `<placeholder>` or a `$VARIABLE` names nothing.
            let placeholder = word.starts_with(['-', '<', '$', '{']);
            if name.is_empty() || placeholder || known.contains(name) {
                continue;
            }
            diags.push(Diag {
                path: rel_path.to_string(),
                line: idx + 1,
                rule: "doc-refs",
                msg: format!(
                    "`{flag} {name}` names no {kind} of the workspace; \
                     point the command at a target that exists"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> Targets {
        let mut t = Targets::default();
        t.add_member(
            "[package]\nname = \"tseig-cli\"\nversion.workspace = true\n\n\
             [[bin]]\nname = \"tseig\"\npath = \"src/main.rs\"\n",
            true,
            &[],
            &[],
        );
        t.add_member(
            "[package]\nname = \"tseig-core\"\n[dependencies]\nname = \"not-a-target\"\n\
             [[example]]\nname = \"quickstart\"\npath = \"../../examples/quickstart.rs\"\n",
            false,
            &[],
            &["local_demo".to_string()],
        );
        t.add_member("[package]\nname = \"xtask\"\n", true, &[], &[]);
        t
    }

    fn run(text: &str) -> Vec<Diag> {
        let mut d = Vec::new();
        check_doc("README.md", text, &targets(), &mut d);
        d
    }

    #[test]
    fn manifests_give_packages_bins_and_examples() {
        let t = targets();
        let set = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<BTreeSet<_>>();
        assert_eq!(t.packages, set(&["tseig-cli", "tseig-core", "xtask"]));
        assert_eq!(t.bins, set(&["tseig", "tseig-cli", "xtask"]));
        assert_eq!(t.examples, set(&["local_demo", "quickstart"]));
    }

    #[test]
    fn stale_package_fails() {
        let d = run("intro\ncargo run --release -p tseig-bench --bin reproduce -- all\n");
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.rule == "doc-refs" && x.line == 2));
        assert!(d[0].msg.contains("tseig-bench") && d[0].msg.contains("package"));
        assert!(d[1].msg.contains("reproduce") && d[1].msg.contains("binary"));
    }

    #[test]
    fn existing_targets_pass() {
        let text = "```\ncargo build --release -p tseig-cli --bin tseig\n```\n\
                    Run `cargo run -p tseig-core --example quickstart` or\n\
                    `cargo run --package xtask -- tidy`.\n";
        assert!(run(text).is_empty(), "{:?}", run(text));
    }

    #[test]
    fn missing_example_fails() {
        let d = run("cargo run --release -p tseig-core --example table2_kernels\n");
        assert_eq!(d.len(), 1);
        assert!(d[0].msg.contains("table2_kernels"));
    }

    #[test]
    fn flags_quoted_alone_are_prose() {
        assert!(run("Pass the `-p` flag, or `--bin` with a name.\n").is_empty());
        assert!(run("cargo test -p\n").is_empty());
        assert!(run("cargo test -p <crate> --example $NAME\n").is_empty());
    }
}
