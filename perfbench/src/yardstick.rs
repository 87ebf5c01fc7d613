//! The host-speed yardstick: a fixed unit of std-only work that shares no
//! code with the program, timed between the ops of a run.
//!
//! A shared host runs the same op up to 1.7 times slower in spells that
//! last from seconds to minutes, on CPU time as much as on wall time: the
//! neighbours' load, not the program, sets how fast a run goes. The
//! yardstick does the kind of work the program does (allocation, string
//! formatting, ordered and hashed maps, sorting, pointer chasing), so a
//! spell slows it down alike. Every end-to-end time is scaled by
//! `REFERENCE_MS` over the yardstick's time around it: the time the op
//! would take on a host that runs the yardstick in `REFERENCE_MS`. A
//! change to the program moves that time; a change of host speed does
//! not. The raw times are kept in each result's detail line.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The yardstick's time, in ms, on the host the benchmark was tuned on
/// (2 vCPUs of an Intel Xeon, release build) during a calm spell.
pub const REFERENCE_MS: f64 = 3.0;

/// Words per yardstick run.
const WORDS: usize = 6000;

/// One yardstick run; returns a checksum so that no step is optimised away.
fn work() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut words: Vec<String> = (0..WORDS).map(|_| format!("w{}", next() % 4096)).collect();
    let mut tree: BTreeMap<&str, usize> = BTreeMap::new();
    let mut table: HashMap<&str, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for (i, w) in words.iter().enumerate() {
        tree.insert(w, i);
        *table.entry(w).or_default() += i as u64;
    }
    // Boxed nodes visited in a scattered order: pointer chasing.
    let nodes: Vec<Box<[u64; 2]>> = (0..WORDS as u64)
        .map(|i| Box::new([next() % WORDS as u64, i]))
        .collect();
    let (mut at, mut sum) = (0, 0u64);
    for _ in 0..WORDS {
        let n = &nodes[at];
        sum = sum.wrapping_add(n[1]);
        at = n[0] as usize;
    }
    let picked: u64 = tree.values().step_by(7).map(|&i| i as u64).sum();
    let distinct = table.len() as u64;
    words.sort_unstable();
    sum ^ picked ^ distinct ^ words[WORDS / 2].len() as u64
}

/// The yardstick's time now, in ms: the median of three runs, so that one
/// run the scheduler interrupts does not count.
pub fn measure() -> f64 {
    let mut t = [0.0; 3];
    for slot in &mut t {
        let start = Instant::now();
        black_box(work());
        *slot = start.elapsed().as_secs_f64() * 1e3;
    }
    t.sort_by(f64::total_cmp);
    t[1]
}

/// The factor that scales a time taken while the yardstick ran in
/// `before` and then `after` ms to the reference host speed.
pub fn factor(before: f64, after: f64) -> f64 {
    REFERENCE_MS / ((before + after) / 2.0)
}
