//! Property tests of the crate's determinism contract: for any input and
//! any closure, both entry points return bit-identical results at every
//! thread count and grain — including the `1`-thread exact-serial path —
//! and `try_map` surfaces the error a serial loop would hit first.

use proptest::prelude::*;

/// A numerically "interesting" pure function: non-linear, sign-sensitive,
/// and built from operations whose results depend on evaluation order if
/// anything were re-associated.
fn knead(x: f64) -> f64 {
    let a = x.mul_add(1.618, -0.577);
    let b = (a * a + 1.0).sqrt() - a.abs();
    (b / 3.0 + x * 0.25).tan().atan()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every thread count and grain the contract is checked at for `n` items:
/// the serial path, two workers, more workers than cores, and grains that
/// spawn a full crew, the usual default, and one that keeps `n` serial.
fn settings(n: usize) -> impl Iterator<Item = (usize, usize)> {
    [1usize, 2, 8].into_iter().flat_map(move |threads| [1, 2, n].map(|grain| (threads, grain)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn map_bit_identical_across_threads_and_grains(
        items in prop::collection::vec(-1e6f64..1e6, 0..300),
    ) {
        let serial: Vec<f64> = items.iter().map(|&x| knead(x)).collect();
        for (threads, grain) in settings(items.len()) {
            let _threads = parallel::ScopedThreads::new(threads);
            let par = parallel::map(items.len(), grain, |i| knead(items[i]));
            prop_assert_eq!(bits(&par), bits(&serial), "threads {} grain {}", threads, grain);
        }
    }

    #[test]
    fn try_map_matches_serial_collect(
        items in prop::collection::vec(0u8..4, 0..200),
    ) {
        // The serial loop fails at the first odd element; the parallel map
        // must surface the same (lowest-index) error, or the same outputs
        // when every element is even.
        let f = |i: usize| -> Result<u8, (usize, u8)> {
            let v = items[i];
            if v % 2 == 1 { Err((i, v)) } else { Ok(v * 2) }
        };
        let serial: Result<Vec<u8>, (usize, u8)> = (0..items.len()).map(f).collect();
        for (threads, grain) in settings(items.len()) {
            let _threads = parallel::ScopedThreads::new(threads);
            let par = parallel::try_map(items.len(), grain, f);
            prop_assert_eq!(&par, &serial, "threads {} grain {}", threads, grain);
        }
    }
}
