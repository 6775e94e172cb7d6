//! Print the SAT solver's trajectory golden (see
//! `tests/support/sat_trajectory.rs`). Regenerate the checked-in copy with
//! `cargo run --release -q --example sat_trajectory > crates/sat/tests/golden/trajectory.txt`
//! only after an intended change to the solver's search.

#[path = "../tests/support/sat_trajectory.rs"]
mod sat_trajectory;

fn main() {
    print!("{}", sat_trajectory::render());
}
