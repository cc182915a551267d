//! Ablation A3's order, which EXPERIMENTS.md states: `lru` reads fastest
//! with all of the hot set on PM, and `pinned-to-hdd` slowest with none
//! of it there. A small run keeps the order of the full one.

use bench::experiments::{ablation_policy, PolicyAblationRow};

#[test]
fn lru_reads_fastest_and_pinned_to_hdd_slowest() {
    let rows = ablation_policy(2_000);
    let by_read =
        |a: &&PolicyAblationRow, b: &&PolicyAblationRow| a.avg_read_ns.total_cmp(&b.avg_read_ns);
    let best = rows.iter().min_by(by_read).unwrap();
    let worst = rows.iter().max_by(by_read).unwrap();
    assert_eq!(
        (best.policy.as_str(), best.hot_on_fast),
        ("lru", 1.0),
        "{rows:?}"
    );
    assert_eq!(
        (worst.policy.as_str(), worst.hot_on_fast),
        ("pinned-to-hdd (worst case)", 0.0),
        "{rows:?}"
    );
}
