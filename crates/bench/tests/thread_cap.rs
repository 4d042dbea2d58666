//! A study that pins its own thread cap must hand the caller's back:
//! `reproduce --threads N` holds a `ScopedThreads` guard around every
//! experiment. Its own test binary, because the override is process-wide.

use dcta_bench::common::RunOpts;
use dcta_bench::portfolio;

#[test]
fn bnb_solve_large_restores_the_callers_thread_cap() {
    let _cap = parallel::ScopedThreads::new(3);
    portfolio::run(&RunOpts { quick: true, ..RunOpts::default() }).expect("quick sweep runs");
    assert_eq!(parallel::max_threads(), 3);
}
