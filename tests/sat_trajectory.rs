//! The CDCL solver's search is pinned byte for byte: every decision,
//! propagation order, learned clause and restart feeds the outcomes, cores,
//! statistics and minimized cores recorded in
//! `crates/sat/tests/golden/trajectory.txt`. A representation change inside
//! `slc-sat` must leave this text unchanged.

#[path = "support/sat_trajectory.rs"]
mod sat_trajectory;

#[test]
fn solver_trajectory_matches_checked_in_golden() {
    let got = sat_trajectory::render();
    let want = include_str!("../crates/sat/tests/golden/trajectory.txt");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "solver trajectory differs from the golden at line {}; regenerate with \
             `cargo run --release -q --example sat_trajectory > \
             crates/sat/tests/golden/trajectory.txt` only after an intended search change",
            line + 1
        );
    }
}
