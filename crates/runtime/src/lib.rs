//! Task-superscalar runtime for tile algorithms.
//!
//! The paper schedules both reduction stages as directed acyclic graphs of
//! tasks whose edges are *inferred from data accesses* (its "data
//! translation layer" + functional dependences), executed by either a
//! dynamic or a static runtime. This crate reproduces that machinery:
//!
//! * [`graph::TaskGraph`] — declare tasks with the data regions they read
//!   and write; true (RAW), anti (WAR) and output (WAW) dependences are
//!   derived automatically, exactly like the PLASMA/QUARK superscalar
//!   model.
//! * [`exec::Runtime`] — a dynamic work-stealing executor built on
//!   `crossbeam-deque`, with a two-lane priority system (the paper
//!   prioritizes critical-path bulge-chasing tasks) and panic isolation.
//! * [`static_sched`] — the static alternative: each worker owns a
//!   pre-assigned task list and synchronizes through atomic progress
//!   counters instead of a shared queue, the scheme the paper prefers for
//!   the memory-bound bulge chasing on few cores.
//! * [`data::DataCell`] — the interior-mutability cell tasks use to share
//!   a matrix; soundness is delegated to the region declarations (the
//!   runtime never runs two tasks with conflicting declared accesses
//!   concurrently).
//! * [`trace`] — per-task timing, aggregated by task tag, which powers the
//!   Figure-1-style phase breakdowns in the benchmark harness.
//! * [`chase`] — the stage-2 bulge-chase executor every frontend shares:
//!   task geometry, declared footprints, the scheduler enum, and the
//!   dynamic/static/serial run arms. A frontend supplies only its kernels.
//!
//! Two layers certify that the delegation to region declarations is
//! actually sound (DESIGN.md §11):
//!
//! * [`verify`] — offline model checking of declared task sets: conflict
//!   coverage (RAW/WAW/WAR completeness), acyclicity, static/dynamic
//!   schedule consistency, priority sanity. Driven by `xtask graphcheck`
//!   over a sweep of real stage-2 instances.
//! * [`shadow`] — debug-only footprint shadow-checking: executors arm a
//!   thread-local with each task's declaration, instrumented storage
//!   helpers report actual touches, and any touch outside the
//!   declaration fails the run loudly. Compiled out of release.

pub mod chase;
pub mod data;
pub mod exec;
pub mod graph;
pub mod shadow;
pub mod static_plan;
pub mod static_sched;
pub mod trace;
pub mod verify;

pub use data::DataCell;
pub use exec::{Runtime, STOPPED_BY_POLL};
pub use graph::{Access, Priority, Region, TaskGraph};
pub use static_plan::StaticSchedule;
