//! Exact per-layer flop counts of the eig-f64-vectors configuration at
//! n = 256. The counts are deterministic (kernel flop formulas over a
//! fixed input), so a silent algorithmic change to any layer fails here.
//! Update the pins only together with the change that explains them.

use tseig_core::Scheduler;
use tseig_ledger::layers::{EigConfig, EigReplay, Tracer, LAYERS};
use tseig_matrix::gen;

#[test]
fn layer_flops_at_256_are_pinned() {
    let a = gen::random_symmetric(256, 256);
    let cfg = EigConfig {
        scheduler: Scheduler::Static(2),
        vectors: true,
    };
    let mut tr = Tracer::new("pinned");
    EigReplay::default()
        .solve(&a, cfg, &mut tr)
        .expect("replay");
    let flops: Vec<(&str, u64)> = LAYERS
        .iter()
        .map(|&name| (name, tr.total(name, 0).1))
        .collect();
    assert_eq!(
        flops,
        [
            ("stage1", 28_442_784),
            ("stage2", 14_209_538),
            ("tridiag", 41_742_848),
            ("backtransform", 74_552_168),
        ],
        "per-layer flops of the n = 256 eig-f64-vectors solve"
    );
}
