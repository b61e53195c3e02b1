//! Workspace walker: finds the workspace root, feeds every source file
//! through the rules, and aggregates diagnostics.

use crate::rules::{
    casts, checkpoint_loop, counters, doc_refs, float_spelling, panics, plan_no_alloc, pure_req,
    result_unwrap, shims, task_shadow, unsafe_rules,
};
use crate::source::SourceFile;
use crate::Diag;
use std::path::{Path, PathBuf};

/// Locate the workspace root: walk up from `start` to the first directory
/// whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Run every tidy rule over the workspace at `root`. Returns all
/// diagnostics, sorted by path and line.
pub fn run_tidy(root: &Path) -> std::io::Result<Vec<Diag>> {
    let mut diags = Vec::new();
    let mut rs_files = Vec::new();
    for top in ["crates", "shims", "examples"] {
        collect(&root.join(top), "rs", &mut rs_files)?;
    }
    rs_files.sort();
    for path in &rs_files {
        let rel = rel_path(root, path);
        let text = std::fs::read_to_string(path)?;
        let file = SourceFile::parse(&rel, &text);
        unsafe_rules::check(&file, &mut diags);
        unsafe_rules::check_intrinsics(&file, &mut diags);
        counters::check(&file, &mut diags);
        panics::check(&file, &mut diags);
        result_unwrap::check(&file, &mut diags);
        casts::check(&file, &mut diags);
        checkpoint_loop::check(&file, &mut diags);
        plan_no_alloc::check(&file, &mut diags);
        pure_req::check(&file, &mut diags);
        task_shadow::check(&file, &mut diags);
        float_spelling::check(&file, &mut diags);
    }
    // Shim manifest drift.
    let shims_dir = root.join("shims");
    if let Ok(entries) = std::fs::read_dir(&shims_dir) {
        let mut manifests: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path().join("Cargo.toml"))
            .filter(|p| p.is_file())
            .collect();
        manifests.sort();
        for m in manifests {
            let rel = rel_path(root, &m);
            let text = std::fs::read_to_string(&m)?;
            shims::check_manifest(&rel, &text, &mut diags);
        }
    }
    // Cargo targets named by the docs.
    let targets = workspace_targets(root)?;
    for doc in doc_files(root)? {
        let text = std::fs::read_to_string(&doc)?;
        doc_refs::check_doc(&rel_path(root, &doc), &text, &targets, &mut diags);
    }
    diags.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(diags)
}

/// The packages, binaries and examples of every workspace member (the
/// packages under `crates/` and `shims/`).
fn workspace_targets(root: &Path) -> std::io::Result<doc_refs::Targets> {
    let stems = |dir: PathBuf| -> std::io::Result<Vec<String>> {
        let mut files = Vec::new();
        collect(&dir, "rs", &mut files)?;
        let stem = |p: &PathBuf| p.file_stem().map(|s| s.to_string_lossy().into_owned());
        Ok(files.iter().filter_map(stem).collect())
    };
    let mut targets = doc_refs::Targets::default();
    for top in ["crates", "shims"] {
        for entry in std::fs::read_dir(root.join(top))? {
            let member = entry?.path();
            let Ok(manifest) = std::fs::read_to_string(member.join("Cargo.toml")) else {
                continue;
            };
            targets.add_member(
                &manifest,
                member.join("src/main.rs").is_file(),
                &stems(member.join("src/bin"))?,
                &stems(member.join("examples"))?,
            );
        }
    }
    Ok(targets)
}

/// The documents whose commands `doc-refs` checks: README.md, DESIGN.md,
/// EXPERIMENTS.md, `docs/*.md` and every `.md` under `.claude/skills/`.
fn doc_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut docs: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|d| root.join(d))
        .filter(|p| p.is_file())
        .collect();
    collect(&root.join("docs"), "md", &mut docs)?;
    collect(&root.join(".claude/skills"), "md", &mut docs)?;
    Ok(docs)
}

/// Recursively collect the files with extension `ext`, skipping build
/// artifacts and hidden directories below `dir`.
fn collect(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect(&path, ext, out)?;
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The real tree must be tidy: this is the same gate CI runs, kept as
    /// a unit test so `cargo test` catches violations before CI does.
    #[test]
    fn workspace_is_tidy() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_root(here).expect("workspace root above xtask");
        let diags = run_tidy(&root).expect("tidy walk");
        assert!(
            diags.is_empty(),
            "tidy violations:\n{}",
            diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
