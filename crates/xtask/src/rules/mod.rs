//! The individual tidy rules. Each rule is a pure function from the
//! scanned [`crate::source::SourceFile`] (or a manifest's text) to a list
//! of [`crate::Diag`]s, so every rule is unit-testable on synthetic
//! sources without touching the filesystem.

pub mod casts;
pub mod checkpoint_loop;
pub mod counters;
pub mod doc_refs;
pub mod float_spelling;
pub mod panics;
pub mod plan_no_alloc;
pub mod pure_req;
pub mod result_unwrap;
pub mod shims;
pub mod task_shadow;
pub mod unsafe_rules;
