//! The thread machine holds glibc to two malloc arenas per core.
//!
//! glibc gives each new thread its own malloc arena, up to 8 per core,
//! and every arena keeps the high-water mark of what passed through it.
//! The rank-thread pool keeps dozens of threads parked between runs, so
//! without a cap a process that ran `p = 64` once holds an arena for
//! most of them. Every thread arena is one 64 MiB-aligned anonymous
//! reservation (glibc's `HEAP_MAX_SIZE`): read-write at the front, the
//! untouched rest `---p`. This test counts those in `/proc/self/maps`
//! after twenty rounds of `p = 64` recorded runs and holds the count to
//! the cap plus one. It reads `/proc/self` only, and is the file's one
//! test so no other test's threads take arenas meanwhile.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use psse_sim::prelude::*;

/// glibc's `HEAP_MAX_SIZE` on 64-bit targets: a thread arena's span and
/// alignment.
const HEAP: u64 = 64 << 20;

/// The anonymous mappings that look like a glibc thread arena: a
/// read-write front on a 64 MiB boundary, the reserved rest right after
/// it with no access.
fn thread_arenas() -> usize {
    let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    let regions: Vec<(u64, u64, &str)> = maps
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (range, perms) = (fields.next()?, fields.next()?);
            // Anonymous: offset, device and inode, then no path.
            if fields.nth(2)? != "0" || fields.next().is_some() {
                return None;
            }
            let (start, end) = range.split_once('-')?;
            let hex = |s| u64::from_str_radix(s, 16).ok();
            Some((hex(start)?, hex(end)?, perms))
        })
        .collect();
    regions
        .windows(2)
        .filter(|w| {
            let ((start, end, perms), (next, _, rest)) = (w[0], w[1]);
            start % HEAP == 0
                && end - start < HEAP
                && perms == "rw-p"
                && next == end
                && rest == "---p"
        })
        .count()
}

/// The cap the pool sets: two arenas per core, unless the environment
/// already gives glibc a limit of its own.
fn cap() -> usize {
    match std::env::var("MALLOC_ARENA_MAX") {
        Ok(v) => v.parse().expect("MALLOC_ARENA_MAX is a count"),
        Err(_) => 2 * std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

#[test]
fn rank_threads_share_two_arenas_per_core() {
    if std::env::var("GLIBC_TUNABLES").is_ok_and(|t| t.contains("glibc.malloc.arena_max")) {
        return; // a limit set through the tunables string is glibc's own
    }
    const P: usize = 64;
    let cfg = SimConfig {
        record_trace: true,
        ..SimConfig::default()
    };
    for round in 0..20u64 {
        // 2.5D matmul on a 4 × 4 × 4 grid, every step recorded.
        let mm = run_programs(P, &cfg, Matmul25D::counted(4, 4, 8 + round)).expect("2.5D run");
        assert_eq!(mm.programs.len(), P);
        // An FFT's transpose: a pairwise all-to-all of real blocks.
        let block = 16 + round as usize;
        let fft = Machine::run(P, cfg.clone(), |rank| {
            let me = rank.rank() as f64;
            let blocks = (0..P).map(|j| vec![me + j as f64; block]).collect();
            let got = rank.alltoall(Tag(round), &Group::world(P), blocks)?;
            Ok(got.iter().map(|b| b[0]).sum::<f64>())
        })
        .expect("all-to-all run");
        let expect = (0..P).map(|j| j as f64).sum::<f64>();
        for (r, &sum) in fft.results.iter().enumerate() {
            assert_eq!(sum, expect + (P * r) as f64);
        }
    }
    let (arenas, cap) = (thread_arenas(), cap());
    assert!(
        arenas <= cap + 1,
        "{arenas} thread arenas after twenty p = {P} rounds; the cap allows {cap} (+1)"
    );
}
