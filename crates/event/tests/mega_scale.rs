//! Mega-scale smoke tests: real algorithms at `p = 10^5`–`10^6` ranks
//! in one process, with every Eq. 1 count verified **exactly** against
//! the closed form.
//!
//! The non-`#[ignore]` tests are sized for ordinary CI (`p = 10^5`
//! allreduce, `p = 2^14` recursive doubling — a couple of hundred
//! thousand priced transfers each). The `#[ignore]` tests push to
//! `p = 2^17` and the `p = 10^6` 2.5D matmul skeleton (~19 M priced
//! transfers); the CI `mega-scale` job runs them in release mode.
//! Counted programs take the analytic fast path through `run_programs`;
//! the `p = 10^6` stencil also runs the scheduler, which must agree.

use psse_event::prelude::*;

fn counted_cfg() -> SimConfig {
    SimConfig {
        backend: Backend::Events,
        max_message_words: 1 << 16,
        ..SimConfig::default()
    }
}

fn check_allreduce_totals(out: &EventOutcome<BinomialAllreduce>, p: u64, n: u64, m: u64) {
    let t = BinomialAllreduce::expected_totals(p, n, m);
    assert_eq!(out.profile.total_msgs_sent(), t.msgs, "S mismatch");
    assert_eq!(out.profile.total_words_sent(), t.words, "W mismatch");
    assert_eq!(out.profile.total_flops(), t.flops, "F mismatch");
    let (sent, recvd) = out.profile.words_balance();
    assert_eq!(sent, recvd, "every word sent must be received");
    assert!(out.profile.makespan > 0.0);
    // The reduce+broadcast critical path crosses at least ⌈log₂p⌉
    // sequential links each way.
    let depth = (64 - (p - 1).leading_zeros()) as f64;
    let link = 1e-6 + 1e-8 * n as f64; // default alpha_t, beta_t
    assert!(
        out.profile.makespan >= depth * link,
        "makespan {} below tree-depth lower bound {}",
        out.profile.makespan,
        depth * link
    );
}

/// A real binomial allreduce over one hundred thousand ranks,
/// in-process, counted payloads — exact S/W/F against the closed form.
#[test]
fn allreduce_100k_ranks_counts_exact() {
    let (p, n) = (100_000u64, 8u64);
    let out = run_programs(
        p as usize,
        &counted_cfg(),
        BinomialAllreduce::counted(Tag(0), n as usize),
    )
    .unwrap();
    check_allreduce_totals(&out, p, n, 1 << 16);
}

/// Recursive doubling at `p = 2^14`: every rank sends in all 14 rounds.
#[test]
fn recursive_doubling_16k_ranks_counts_exact() {
    let (p, n) = (1u64 << 14, 16u64);
    let out = run_programs(
        p as usize,
        &counted_cfg(),
        RecursiveDoublingAllreduce::counted(Tag(0), n as usize),
    )
    .unwrap();
    let t = RecursiveDoublingAllreduce::expected_totals(p, n, 1 << 16);
    assert_eq!(out.profile.total_msgs_sent(), t.msgs);
    assert_eq!(out.profile.total_words_sent(), t.words);
    assert_eq!(out.profile.total_flops(), t.flops);
    // Latency-optimal: every rank finishes after exactly log₂p rounds,
    // so per-rank sent messages are uniform.
    assert!(out
        .profile
        .per_rank()
        .iter()
        .all(|r| r.msgs_sent == p.trailing_zeros() as u64));
}

/// Chunked mega-run: transfers longer than `m` split into `⌈n/m⌉`
/// messages, still exactly as the closed form predicts.
#[test]
fn allreduce_chunked_counts_exact() {
    let (p, n, m) = (10_000u64, 1000u64, 64u64);
    let cfg = SimConfig {
        max_message_words: m as usize,
        ..counted_cfg()
    };
    let out = run_programs(
        p as usize,
        &cfg,
        BinomialAllreduce::counted(Tag(0), n as usize),
    )
    .unwrap();
    check_allreduce_totals(&out, p, n, m);
}

/// `p = 2^17` recursive doubling (~2.3 M priced transfers). Run by the
/// CI mega-scale job in release mode: `cargo test -p psse-event
/// --release -- --ignored`.
#[test]
#[ignore = "mega-scale: run in release (CI mega-scale job)"]
fn recursive_doubling_131k_ranks_counts_exact() {
    let (p, n) = (1u64 << 17, 8u64);
    let out = run_programs(
        p as usize,
        &counted_cfg(),
        RecursiveDoublingAllreduce::counted(Tag(0), n as usize),
    )
    .unwrap();
    let t = RecursiveDoublingAllreduce::expected_totals(p, n, 1 << 16);
    assert_eq!(out.profile.total_msgs_sent(), t.msgs);
    assert_eq!(out.profile.total_words_sent(), t.words);
    assert_eq!(out.profile.total_flops(), t.flops);
}

/// The priced 2.5D matmul skeleton at `p = 10^5` (`q = 100, c = 10`,
/// ~2.3 M transfers).
#[test]
#[ignore = "mega-scale: run in release (CI mega-scale job)"]
fn matmul_25d_100k_ranks_counts_exact() {
    let (q, c, b) = (100usize, 10usize, 8u64);
    let out = run_programs(q * q * c, &counted_cfg(), Matmul25D::counted(q, c, b)).unwrap();
    let t = Matmul25D::expected_totals(q as u64, c as u64, b);
    assert_eq!(out.profile.total_msgs_sent(), t.msgs);
    assert_eq!(out.profile.total_words_sent(), t.words);
    assert_eq!(out.profile.total_flops(), t.flops);
    let (sent, recvd) = out.profile.words_balance();
    assert_eq!(sent, recvd);
}

/// The headline scale: one million ranks (`q = 200, c = 25`, ~19 M
/// priced transfers), exact to the word.
#[test]
#[ignore = "mega-scale: run in release (CI mega-scale job)"]
fn matmul_25d_1m_ranks_counts_exact() {
    let (q, c, b) = (200usize, 25usize, 8u64);
    let out = run_programs(q * q * c, &counted_cfg(), Matmul25D::counted(q, c, b)).unwrap();
    let t = Matmul25D::expected_totals(q as u64, c as u64, b);
    assert_eq!(out.profile.total_msgs_sent(), t.msgs);
    assert_eq!(out.profile.total_words_sent(), t.words);
    assert_eq!(out.profile.total_flops(), t.flops);
}

/// The stencil at `p = 10^5` slabs (`n = 10^5`, 2 sweeps — ~400 k halo
/// transfers): exact surface words and volume flops.
#[test]
fn stencil_100k_ranks_counts_exact() {
    let (p, n, h, iters) = (100_000usize, 100_000usize, 1usize, 2usize);
    let out = run_programs(p, &counted_cfg(), Stencil1D::counted(n, h, iters)).unwrap();
    let t = Stencil1D::expected_totals(p as u64, n as u64, h as u64, iters as u64, 1 << 16);
    assert_eq!(out.profile.total_msgs_sent(), t.msgs);
    assert_eq!(out.profile.total_words_sent(), t.words);
    assert_eq!(out.profile.total_flops(), t.flops);
    let (sent, recvd) = out.profile.words_balance();
    assert_eq!(sent, recvd);
}

/// Sample sort at `p = 2^10` (the all-to-all is quadratic in p — ~2 M
/// priced transfers): exact against the uniform-bucket closed form, and
/// the S = Θ(p) scaling-breaker is visible in the per-rank counters.
#[test]
#[ignore = "mega-scale: run in release (CI mega-scale job)"]
fn samplesort_1k_ranks_counts_exact() {
    let (p, bs) = (1usize << 10, 1usize << 12);
    let out = run_programs(p, &counted_cfg(), SampleSort::counted(bs)).unwrap();
    let t = SampleSort::expected_totals(p as u64, bs as u64, 1 << 16);
    assert_eq!(out.profile.total_msgs_sent(), t.msgs);
    assert_eq!(out.profile.total_words_sent(), t.words);
    assert_eq!(out.profile.total_flops(), t.flops);
    // Every rank pays 2(p−1) messages: latency grows linearly with p.
    assert!(out
        .profile
        .per_rank()
        .iter()
        .all(|r| r.msgs_sent == 2 * (p as u64 - 1)));
}

/// The stencil at `p = 10^6` slabs — perfect-scaling workload at the
/// paper's headline rank count (~8 M halo transfers) — scheduled, then
/// priced in closed form to the same bytes. The scheduled run is the
/// one at this scale that still builds a world, so it goes first and
/// keeps only its profile: the process peaks once, at the scheduler.
#[test]
#[ignore = "mega-scale: run in release (CI mega-scale job)"]
fn stencil_1m_ranks_counts_exact() {
    let (p, n, h, iters) = (1_000_000usize, 1_000_000usize, 1usize, 2usize);
    let make = Stencil1D::counted(n, h, iters);
    let general = EventMachine::run_general(p, &counted_cfg(), &make)
        .unwrap()
        .profile;
    let t = Stencil1D::expected_totals(p as u64, n as u64, h as u64, iters as u64, 1 << 16);
    assert_eq!(general.total_msgs_sent(), t.msgs);
    assert_eq!(general.total_words_sent(), t.words);
    assert_eq!(general.total_flops(), t.flops);
    let fast = run_programs(p, &counted_cfg(), &make).unwrap();
    assert!(fast.programs.is_empty(), "priced, not scheduled");
    assert_eq!(fast.profile, general);
    assert_eq!(fast.profile.makespan.to_bits(), general.makespan.to_bits());
}
