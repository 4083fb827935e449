//! The spare-core fork-join (`autotune::math::batch`) under concurrent
//! callers and panics: a region returns every item's result in input
//! order, the same bits whichever thread ran it, and a panicking item
//! neither loses its panic nor the helper that ran it. Pinned to one CPU
//! there are no helpers, and every region runs on its caller.

use autotune::math::batch::par_map;
use std::panic::catch_unwind;
use std::thread;
use std::time::{Duration, Instant};

/// Uneven floating-point work: item `i` costs about `i mod 7` units.
fn uneven(salt: u64, i: u64) -> u64 {
    let mut x = (salt ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) as f64 * 1e-19;
    for _ in 0..(i % 7) * 200 {
        x = (x * 1.000_001 + 0.5).sin();
    }
    x.to_bits()
}

#[test]
fn concurrent_regions_match_a_serial_run_bitwise() {
    let run = |caller: u64| {
        for region in 0..300u64 {
            let salt = caller * 1000 + region;
            let items: Vec<u64> = (0..1 + (region * 7 + caller) % 23).collect();
            let got = par_map(&items, |&i| uneven(salt, i));
            let want: Vec<u64> = items.iter().map(|&i| uneven(salt, i)).collect();
            assert_eq!(got, want, "caller {caller}, region {region}");
        }
    };
    thread::scope(|s| {
        s.spawn(|| run(1));
        s.spawn(|| run(2));
    });
}

#[test]
fn a_panic_propagates_and_the_next_region_still_gets_a_helper() {
    let caught = catch_unwind(|| {
        par_map(0..16u64, |i| {
            assert_ne!(i, 0, "item zero fails");
            i
        })
    });
    assert!(caught.is_err(), "a panicking item must reach the caller");
    if thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return; // no spare core, so no helper to check
    }
    // Another test's regions may hold the helpers for a while, so each
    // check retries until a helper has taken an item.
    let caller = thread::current().id();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let caught = catch_unwind(|| {
            par_map(0..64u64, |i| {
                let bits = uneven(9, i);
                assert_eq!(thread::current().id(), caller, "a helper's item fails");
                bits
            })
        });
        if caught.is_err() {
            break;
        }
        assert!(Instant::now() < deadline, "no helper took an item");
    }
    loop {
        let ran_on = par_map(0..64u64, |i| {
            uneven(9, i);
            thread::current().id()
        });
        if ran_on.iter().any(|&id| id != caller) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no helper took an item after one panicked"
        );
    }
}
